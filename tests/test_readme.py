"""The README's examples run as documented."""

import re
import shlex
from pathlib import Path

from trajent.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, re.M | re.S)


def test_library_example_gives_its_documented_rate():
    (code,) = _blocks("python")
    ns = {"print": lambda *args: None}
    exec(code, ns)
    fit = ns["fit_rate"](ns["summary"])
    kappa = ns["rate_report"](ns["s"]).kappa_qj
    assert kappa == 1.0  # "exactly 1.0"
    # "~1.0" at 3 sigma, with sigma = 0.0085 the spread of the fitted rate
    # over seeds 0-19 at these settings; the fit's own rate_stderr (0.0018)
    # treats the correlated record points as independent
    assert abs(fit.rate - kappa) <= 3 * 0.0085


def test_cli_examples_exit_0(tmp_path, monkeypatch, capsys):
    # in order, in a fresh directory: `trajent fit run.csv` reads the CSV
    # that the first example writes
    text = "\n".join(_blocks("")).replace("\\\n", " ")
    lines = [line for line in text.splitlines() if line.startswith("trajent ")]
    assert len(lines) == 6
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, line


def test_library_layout_names_every_module():
    # the table's rows are exactly the package's modules, no more, no fewer
    table = README.split("## Library layout", 1)[1].split("\n\n", 2)[1]
    rows = re.findall(r"^\| `trajent\.(\w+)` \|", table, re.M)
    src = Path(__file__).resolve().parents[1] / "src" / "trajent"
    modules = {p.stem for p in src.glob("*.py")} - {"__init__"}
    assert len(rows) == len(set(rows))
    assert set(rows) == modules
