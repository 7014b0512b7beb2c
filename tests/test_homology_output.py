"""``gammalab homology`` output, pinned byte for byte for every bundled
(group, character) in degrees 0 to 4.

Each case runs with ``--resolution auto`` and ``bar`` (and ``cyclic`` on
the cyclic groups), at the default budget and at ``--budget 7000000``, in
both output formats.  Stdout, stderr and the exit code are pinned.  The
cases answered while the bar route read every column of ``d_{k+1}`` were
frozen then, and the kept columns print the same bytes; the cases that
route was refused at these budgets are frozen from the kept columns, which
answer every case.  To freeze the fixture again, run ``python
tests/test_homology_output.py`` with the package on the path.
"""

import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout

from gammalab import cli
from gammalab.homology import MAX_DEGREE
from gammalab.serialize import bundled_names, bundled_path, load_group

PINNED = os.path.join(os.path.dirname(__file__), "data",
                      "homology_bundled.json")
BUDGETS = ([], ["--budget", "7000000"])
FORMATS = ("table", "structured")


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def case_argvs():
    for name in sorted(bundled_names("group")):
        group, characters = load_group(bundled_path("group", name))
        providers = ["auto", "bar"] + (["cyclic"] if group.is_cyclic() else [])
        for character in sorted(characters):
            for degree in range(MAX_DEGREE + 1):
                for provider in providers:
                    for budget in BUDGETS:
                        for style in FORMATS:
                            yield ["homology", "--group", name,
                                   "--character", character,
                                   "--degree", str(degree),
                                   "--resolution", provider] + budget + \
                                ["--format", style]


def freeze():
    cases = []
    for argv in case_argvs():
        code, out, err = run_cli(argv)
        cases.append({"argv": argv, "exit": code, "stdout": out,
                      "stderr": err})
    # One case a line, so that a change to the fixture diffs by case.
    with open(PINNED, "w", encoding="utf-8") as handle:
        handle.write('{"frozen_from": "gammalab homology, the kept columns '
                     'of the bar route\'s d_{k+1}",\n "cases": [\n')
        handle.write(",\n".join(json.dumps(case, sort_keys=True)
                                for case in cases))
        handle.write("\n]}\n")


def test_bundled_homology_output_is_pinned(monkeypatch):
    monkeypatch.delenv(cli.BUDGET_ENV, raising=False)
    with open(PINNED, encoding="utf-8") as handle:
        cases = json.load(handle)["cases"]
    assert [case["argv"] for case in cases] == list(case_argvs())
    for case in cases:
        argv = case["argv"]
        assert run_cli(argv) == (case["exit"], case["stdout"],
                                 case["stderr"]), argv
    # Every bundled query is answered at the default budget; refusal texts
    # are pinned by tests/test_cli.py and the tor1 fixture.
    assert all(case["exit"] == 0 for case in cases)


if __name__ == "__main__":
    os.environ.pop(cli.BUDGET_ENV, None)
    sys.exit(freeze())
