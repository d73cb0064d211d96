"""The README's check catalog must list the CHECKS registry as it is, with
the verdict modes each id emits, and its library example must run against
the package as it is."""

from fractions import Fraction
from pathlib import Path

from test_verify import TAKES_CFG
from truncbell import verify

README = Path(__file__).resolve().parents[1] / "README.md"


def _catalog_rows() -> list[dict]:
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index("## Check catalog")
    table = []
    for line in lines[start + 1:]:
        if line.startswith("## "):
            break
        if line.startswith("|"):
            table.append([cell.strip() for cell in line.strip("|").split("|")])
    header, _rule, *body = table
    return [dict(zip(header, row)) for row in body]


def _modes_emitted(check_id: str, spec) -> set:
    """The verdict modes check_id emits at one small point inside every
    check's domain."""
    p = max(spec.p_min, 2) if "p" in spec.arg_names else None
    cfg = verify.NumericConfig(moment_nodes=1000) if check_id in TAKES_CFG else None
    verdicts = verify.run_check(check_id, Fraction(1, 2), p=p, n_max=4, order=8, cfg=cfg)
    return {v.mode for v in verdicts if v.check_id == check_id}


def test_readme_catalog_matches_registry():
    rows = _catalog_rows()
    assert [row["id"].strip("`") for row in rows] == list(verify.KNOWN_CHECK_IDS)
    spec_of = {i: spec for spec in verify.CHECKS for i in spec.ids}
    for row in rows:
        check_id = row["id"].strip("`")
        spec = spec_of[check_id]
        assert row["p"] == (f"≥ {spec.p_min}" if "p" in spec.arg_names else "none"), row
        assert row["λ domain"] == ("-1 < λ < 1" if spec.contour else "all"), row
        named = {mode for mode in ("exact", "numeric") if mode in row["second route"]}
        assert named == _modes_emitted(check_id, spec), row


def test_readme_library_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    example = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(example, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["10/27*x^2 + 2/5*x^3 + 1/15*x^4", "True 0"]
