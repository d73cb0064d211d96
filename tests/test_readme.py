"""The README's check catalog must list the CHECKS registry as it is, and
its library example must run against the package as it is."""

from pathlib import Path

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


def test_readme_catalog_matches_registry():
    rows = _catalog_rows()
    assert [row["id"].strip("`") for row in rows] == list(verify.KNOWN_CHECK_IDS)
    spec_of = {i: spec for spec in verify.CHECKS for i in spec.ids}
    for row in rows:
        spec = spec_of[row["id"].strip("`")]
        assert row["p"] == ("none" if spec.p_min is None else f"≥ {spec.p_min}"), row
        assert row["λ domain"] == ("-1 < λ < 1" if spec.contour else "all"), row


def test_readme_library_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    example = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(example, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["10/27*x^2 + 2/5*x^3 + 1/15*x^4", "True 0"]
