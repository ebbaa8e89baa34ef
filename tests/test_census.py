"""The reachability census (``tools/census.py``) on a throwaway tree and
on this repository."""

import subprocess
import sys
import textwrap
from pathlib import Path

CENSUS = Path(__file__).resolve().parent.parent / "tools" / "census.py"


def _census(root):
    done = subprocess.run(
        [sys.executable, str(CENSUS), str(root)],
        capture_output=True, text=True, check=False,
    )
    findings = [
        line for line in done.stdout.splitlines()
        if not line.startswith("census:")
    ]
    return done.returncode, findings


def _write(root, files):
    for name, body in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(body))


def test_flags_unreachable_test_only_and_unused_reexport(tmp_path):
    _write(tmp_path, {
        "src/pkg/__init__.py": "from pkg.mod import helper\n",
        "src/pkg/cli.py": """\
            from pkg.mod import run

            run()
        """,
        "src/pkg/mod.py": """\
            SCALE = 2
            UNREAD = 3


            def run():
                return helper() * SCALE


            def helper():
                return 1


            def only_tested():
                return 2


            class Target:
                def step(self):
                    return 3
        """,
        "src/pkg/dead.py": "VALUE = 1\n",
        "benchmarks/bench.py": """\
            TARGETS = (("pkg.mod:Target", "step"),)
        """,
        "tests/test_mod.py": """\
            from pkg.dead import VALUE
            from pkg.mod import UNREAD, only_tested
        """,
    })
    code, findings = _census(tmp_path)
    assert code == 1
    assert findings == [
        "module not reached from a root: pkg.dead",
        "reached only by tests or itself: pkg.dead:VALUE (dead.py:1)",
        "reached only by tests or itself: pkg.mod:UNREAD (mod.py:2)",
        "reached only by tests or itself: pkg.mod:only_tested (mod.py:13)",
        "re-export nothing imports through its package: pkg.helper",
    ]


def test_lazy_table_entries_are_reexports_and_imports(tmp_path):
    _write(tmp_path, {
        "src/pkg/__init__.py": """\
            _LAZY = {
                "run": "pkg.core.mod",
                "helper": "pkg.core.mod",
            }
        """,
        "src/pkg/core/__init__.py": "",
        "src/pkg/cli.py": """\
            from pkg import run

            run()
        """,
        "src/pkg/core/mod.py": """\
            def run():
                return helper()


            def helper():
                return 1
        """,
    })
    code, findings = _census(tmp_path)
    assert code == 1
    # pkg.core.mod is reached only through the table; helper is used
    # inside it, but nothing imports it through the package, and the
    # table's module strings name no re-export of their own
    assert findings == ["re-export nothing imports through its package: pkg.helper"]


def test_a_name_in_its_own_modules_all_is_not_a_use(tmp_path):
    _write(tmp_path, {
        "src/pkg/__init__.py": "",
        "src/pkg/cli.py": """\
            from pkg.mod import run

            run()
        """,
        "src/pkg/mod.py": """\
            __all__ = ["run", "only_tested"]


            def run():
                return 1


            def only_tested():
                return 2
        """,
        "tests/test_mod.py": "from pkg.mod import only_tested\n",
    })
    code, findings = _census(tmp_path)
    assert code == 1
    assert findings == [
        "reached only by tests or itself: pkg.mod:only_tested (mod.py:8)",
    ]


def test_repository_is_clean():
    code, findings = _census(CENSUS.parent.parent)
    assert (code, findings) == (0, [])
