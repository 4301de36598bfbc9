import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs(run_fresh):
    # the README's library quick start, as printed there: FG's sphere
    # sizes, then the polynomial bound and the criterion both holding
    code = re.search(r"## Library quick start\s+```python\n(.*?)```",
                     README.read_text(encoding="utf-8"), re.S).group(1)
    done = run_fresh(["-c", code], 0)
    assert done.returncode == 0, done.stderr.decode()
    sizes, bound, criterion = done.stdout.decode().splitlines()
    assert sizes.startswith("[3, 18, 72, 288, 1152,")
    assert (bound, criterion) == ("True", "True")
