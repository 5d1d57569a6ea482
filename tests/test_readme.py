"""The README's library quickstart runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quickstart_runs():
    section = README.read_text().split("## Library quickstart", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    exec(compile(block, "README.md quickstart", "exec"), namespace)
    mean = namespace["report"].quantities["aoi_mean[1]"]
    assert abs(mean.value - 2.0 / 3.0) < 3.0 * mean.stderr
