"""``gammalab tor1`` output, pinned byte for byte.

The inputs are every bundled group and character with the bundled modules
and with modules written to files: free modules of rank 1 and 2 in the
standard layout, the norm quotient and the sign line of every character,
the trivial ``Z/2``, and three modules in a seeded random basis (the
regular module, a norm quotient and a sign line plus the trivial line).
Each runs in both output formats, at the default budget and at
``GAMMALAB_BUDGET=300``.  Stdout, stderr and the exit code are pinned, so
a budget refusal is pinned as well as an answer.  The fixture was frozen
while Tor₁ was still computed from a minimal free cover; to freeze it
again, run ``python tests/test_tor1_output.py`` with the package and
``tests`` on the path.
"""

import io
import json
import os
import random
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from unittest.mock import patch

from gammalab import cli
from gammalab.abelian import AbelianPresentation
from gammalab.modules import (ZPiModule, direct_sum_module, free_module,
                              norm_quotient_module, sign_module,
                              trivial_module)
from gammalab.serialize import bundled_names, bundled_path, load_group

from test_modules import in_random_basis

PINNED = os.path.join(os.path.dirname(__file__), "data", "tor1_bundled.json")
BUDGETS = (None, "300")
FORMATS = ("table", "structured")
SEED = 2705


def run_cli(argv, budget):
    """Exit code, stdout and stderr, with ``GAMMALAB_BUDGET`` set to
    ``budget``, or unset when it is ``None``."""
    env = {k: v for k, v in os.environ.items() if k != cli.BUDGET_ENV}
    if budget is not None:
        env[cli.BUDGET_ENV] = budget
    out, err = io.StringIO(), io.StringIO()
    with patch.dict(os.environ, env, clear=True), redirect_stdout(out), \
            redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def module_doc(module):
    return {"ngens": module.underlying.ngens,
            "relations": module.underlying.relations.data,
            "action": {str(g): module.action[g].data
                       for g in range(module.group.order)}}


def generated_modules(rng, group, characters):
    """``(label, module)`` pairs over ``group``, in a fixed order."""
    named = sorted(characters.items())
    z2 = ZPiModule(group, AbelianPresentation.from_relation_rows(1, [[2]]),
                   check=False, table=[([0], [1])] * group.order)
    modules = [("free1", free_module(group, 1)),
               ("free2", free_module(group, 2))]
    modules += [(f"norm_{name}", norm_quotient_module(group, w))
                for name, w in named]
    modules += [(f"sign_{name}", sign_module(group, w)) for name, w in named]
    modules.append(("trivial_z2", z2))
    last = named[-1][1]
    modules += [
        ("scrambled_free1", in_random_basis(rng, free_module(group, 1))),
        ("scrambled_norm", in_random_basis(
            rng, norm_quotient_module(group, last))),
        ("scrambled_sign_plus_trivial", in_random_basis(
            rng, direct_sum_module(sign_module(group, last),
                                   trivial_module(group)))),
    ]
    return modules


def cases(directory):
    """``(key, argv, budget)`` for every pinned case; module files are
    written into ``directory``, and the key names them by label."""
    rng = random.Random(SEED)
    for name in sorted(bundled_names("group")):
        group, characters = load_group(bundled_path("group", name))
        modules = [(label, label) for label in
                   sorted(bundled_names("module")) if name == "z2"]
        for label, module in generated_modules(rng, group, characters):
            path = os.path.join(directory, f"{name}_{label}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(module_doc(module), handle)
            modules.append((label, path))
        for character in sorted(characters):
            for label, source in modules:
                for budget in BUDGETS:
                    for style in FORMATS:
                        key = [name, character, label, budget, style]
                        argv = ["tor1", "--group", name, "--character",
                                character, "--module", source,
                                "--format", style]
                        yield key, argv, budget


def freeze():
    frozen = []
    with tempfile.TemporaryDirectory() as directory:
        for key, argv, budget in cases(directory):
            code, out, err = run_cli(argv, budget)
            assert directory not in out + err, argv
            frozen.append({"key": key, "exit": code, "stdout": out,
                           "stderr": err})
    # One case a line, so that a change to the fixture diffs by case.
    with open(PINNED, "w", encoding="utf-8") as handle:
        handle.write('{"frozen_from": "gammalab tor1, Tor_1 from a minimal '
                     'free cover",\n "cases": [\n')
        handle.write(",\n".join(json.dumps(case, sort_keys=True)
                                for case in frozen))
        handle.write("\n]}\n")


def test_bundled_tor1_output_is_pinned(tmp_path):
    with open(PINNED, encoding="utf-8") as handle:
        pinned = json.load(handle)["cases"]
    generated = list(cases(str(tmp_path)))
    assert [case["key"] for case in pinned] == [key for key, _, _ in generated]
    refused = 0
    for case, (key, argv, budget) in zip(pinned, generated):
        assert run_cli(argv, budget) == (
            case["exit"], case["stdout"], case["stderr"]), key
        refused += case["exit"] != 0
    # Both answers and refusals are pinned.
    assert 0 < refused < len(pinned)


if __name__ == "__main__":
    freeze()
