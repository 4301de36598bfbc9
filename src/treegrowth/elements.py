"""Object wrapper over the interned arithmetic: one Group per family, with
Element values that compose, invert, decompose and expose portraits."""

from .engine import Engine


class Group:
    def __init__(self, spec):
        self.spec = spec
        self.engine = Engine(spec)

    def identity(self, cls=0):
        return Element(self, cls, 0)

    def generator(self, name, cls=0):
        return Element(self, cls, self.engine.gen_id(cls, name))

    def from_word(self, names, cls=0):
        return Element(self, cls, self.engine.element_from_word(cls, names))


class Element:
    __slots__ = ("group", "cls", "id")

    def __init__(self, group, cls, id):
        self.group = group
        self.cls = cls
        self.id = id

    def __mul__(self, other):
        if other.group is not self.group or other.cls != self.cls:
            raise ValueError("elements live at different levels")
        return Element(self.group, self.cls,
                       self.group.engine.mul(self.cls, self.id, other.id))

    def inverse(self):
        return Element(self.group, self.cls,
                       self.group.engine.inv(self.cls, self.id))

    def is_identity(self):
        return self.id == 0

    def __eq__(self, other):
        return (isinstance(other, Element) and self.group is other.group
                and self.cls == other.cls and self.id == other.id)

    def __hash__(self):
        return hash((id(self.group), self.cls, self.id))

    @property
    def root(self):
        return self.group.engine.root(self.cls, self.id)

    def decompose(self):
        """(sections at the next level class, root permutation)."""
        eng = self.group.engine
        sc = self.group.spec.succ_class(self.cls)
        sections = tuple(Element(self.group, sc, x)
                         for x in eng.children(self.cls, self.id))
        return sections, self.root

    def section_at(self, vertex):
        x, c = self.group.engine.section_at(self.cls, self.id, tuple(vertex))
        return Element(self.group, c, x)

    def apply(self, vertex):
        return self.group.engine.apply(self.cls, self.id, tuple(vertex))

    def portrait(self, depth):
        return self.group.engine.portrait(self.cls, self.id, depth)

    def __repr__(self):
        return f"Element(cls={self.cls}, id={self.id}, root={self.root})"
