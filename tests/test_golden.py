"""The golden outcome file: no output moved.

`golden.py` says what the lines hold and how to rewrite them.
"""

import json

from irreducia.criteria import CRITERIA

import golden


def test_no_output_moved():
    expected, actual = golden.read_lines(), golden.build_lines()
    if actual != expected:  # a plain message: pytest's own diff of 2,000 long lines helps no one
        shown = [f"expected: {a}\nactual:   {b}" for a, b in zip(expected, actual) if a != b][:5]
        raise AssertionError(f"{len(actual)} lines built, {len(expected)} recorded; the first that differ:\n"
                             + "\n".join(shown) + "\nA change that moves an output on purpose runs "
                             "`python tests/golden.py` and says why in CHANGES.md.")


def test_golden_lines_reach_every_outcome_kind():
    # the comparison above would pass vacuously on lines that never reach
    # these; read from the file, so this costs no analysis
    reports, summary = [], []
    for line in golden.read_lines():
        if line.startswith("["):
            reports.append(json.loads(line)[3])
        else:
            summary.append(line)
    outcomes = [o for r in reports for o in r.get("outcomes", ())]
    fired = {o["criterion"] for o in outcomes if o["applicable"]}
    assert fired >= {*CRITERIA, "degree_one"}
    assert any(o["certificateMode"] == "numeric-conditional" for o in outcomes)
    warnings = "\n".join(w for r in reports for w in r.get("warnings", ()))
    for text in ("input splits as content * z^", "a probable prime, not proven prime",
                 "no factor within", "oracle skipped: "):
        assert text in warnings
    assert any(r["normalization"]["content"] != "1" for r in reports if "normalization" in r)
    assert any(len(r["oracle"]["factors"]) >= 2 for r in reports if "oracle" in r)
    assert summary[0].startswith("audited ") and summary[-1].startswith("total violations: ")
    assert any("stopped by a limit" in line for line in summary)
