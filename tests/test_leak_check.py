from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_leaked_file_handle_fails_under_the_project_config(pytester):
    # the project's own pytest settings, so the plain test command enforces them
    pytester.makepyprojecttoml(PYPROJECT.read_text(encoding="utf-8"))
    pytester.mkdir("tests")
    pytester.makepyfile(**{"tests/test_leak": """
        def test_leaks_a_handle(tmp_path):
            path = tmp_path / "data.txt"
            path.write_text("x")
            path.open()
        """})
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1)
    result.stdout.fnmatch_lines(["*ResourceWarning*unclosed file*"])
