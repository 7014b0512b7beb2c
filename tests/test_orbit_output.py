"""``gammalab orbit`` output, pinned for every bundled (group, character,
degree) the kernel-basis route answered within a minute.

The fixture was frozen from that route.  Orbits now come from the torsion
of the cokernel of ``d_{k+1}``, whose canonical coordinates can differ, so
what is pinned byte for byte is what does not depend on coordinates: the
``H_k`` line, the free rank, the automorphism count, the orbit count, the
sorted orbit sizes, and the whole report of a refused query.  Each printed
representative must be the least member, in the new coordinates, of an
orbit of the printed size.
"""

import io
import json
import os
import re
from contextlib import redirect_stderr, redirect_stdout

from gammalab import cli
from gammalab.homology import induced_homology_maps
from gammalab.serialize import bundled_path, load_group

PINNED = os.path.join(os.path.dirname(__file__), "data",
                      "orbit_bundled.json")
ORBIT_LINE = re.compile(r"  orbit (\d+): representative \[(.*)\], size (\d+)$")


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def parse_orbits(lines):
    orbits = []
    for index, line in enumerate(lines, start=1):
        match = ORBIT_LINE.match(line)
        assert match and int(match.group(1)) == index, line
        rep = tuple(int(c) for c in match.group(2).split(", ") if c)
        orbits.append((rep, int(match.group(3))))
    return orbits


def orbit_of(pres, homs, key):
    """The classes reached from ``key`` by negation and the homs."""
    zeros = [0] * pres.rank
    orbit, stack = set(), [key]
    while stack:
        current = stack.pop()
        if current in orbit:
            continue
        orbit.add(current)
        x = pres.from_canonical(zeros, current)
        for y in [x] + [hom.apply(x) for hom in homs]:
            for z in (y, [-c for c in y]):
                stack.append(pres.to_canonical(z)[1])
    return orbit


def option(argv, name):
    return argv[argv.index(name) + 1]


def test_bundled_orbit_output_is_pinned():
    with open(PINNED, encoding="utf-8") as handle:
        cases = json.load(handle)["cases"]
    assert len(cases) == 102
    for case in cases:
        argv = case["argv"]
        code, text, err = run_cli(argv)
        assert code == case["exit"], argv
        if code:
            assert (text, err) == ("", case["stderr"]), argv
            continue
        lines, frozen = text.splitlines(), case["table"]
        assert lines[:4] == frozen[:4], argv
        orbits = parse_orbits(lines[4:])
        assert sorted(size for _, size in orbits) == \
            sorted(size for _, size in parse_orbits(frozen[4:])), argv

        code, structured, _ = run_cli(argv + ["--format", "structured"])
        assert code == 0, argv
        doc, frozen_doc = json.loads(structured), case["structured"]
        assert doc.pop("orbits") == [{"representative": list(rep),
                                      "size": size} for rep, size in orbits]
        frozen_doc.pop("orbits")
        assert doc == frozen_doc, argv

        group, characters = load_group(bundled_path("group",
                                                    option(argv, "--group")))
        w = characters[option(argv, "--character")]
        pres, homs = induced_homology_maps(
            group, w, int(option(argv, "--degree")),
            budget=int(option(argv, "--budget")))
        for rep, size in orbits:
            orbit = orbit_of(pres, homs, rep)
            assert (min(orbit), len(orbit)) == (rep, size), argv
