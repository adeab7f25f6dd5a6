"""Same bytes: run, diagnose, steady, validate and riemann on every shipped
config, each reduced to one sha256 and compared with the table in
same_bytes.json.

An entry's digest covers the exit code, stdout (the output root replaced
by a placeholder), stderr, the warnings raised (recorded here, so the test
runner's capture cannot change them) and every file written, by relative
path in sorted order; manifest.json is hashed without runtime_seconds and
config_source. The digests depend on numpy's rounding, so the table records
the numpy version it was written with.

A change that means to move outputs rewrites the table, and names each
entry that moved and why:

    PYTHONPATH=src python tests/test_same_bytes.py
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import sys
import tempfile
import warnings

import numpy as np

from hetflux.cli import ENV_OUTPUT_ROOT, main

HERE = pathlib.Path(__file__).resolve().parent
TABLE = HERE / "same_bytes.json"
CONFIGS = sorted((HERE.parent / "configs").glob("*.ini"))
COMMANDS = {
    "run": [], "diagnose": [], "steady": [], "validate": [],
    "riemann": ["--left=0.3", "--right=0.7"],
}


def _entries():
    """(name, argv) of every entry, in table order."""
    return [(f"{command} {config.stem}", [command, "-c", str(config), *extra])
            for config in CONFIGS for command, extra in COMMANDS.items()]


def _digest(argv, root: str) -> str:
    """One sha256 over everything main(argv) leaves, with outputs under root."""
    os.environ[ENV_OUTPUT_ROOT] = root
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        rc = main(argv)
    parts = [str(rc), out.getvalue().replace(root, "<root>"), err.getvalue(),
             *(f"{w.category.__name__}: {w.message}" for w in caught)]
    parts = [p.encode("utf-8") for p in parts]
    paths = sorted(p for p in pathlib.Path(root).rglob("*") if p.is_file())
    for path in paths:
        data = path.read_bytes()
        if path.name == "manifest.json":
            manifest = json.loads(data)
            manifest.pop("runtime_seconds")
            manifest.pop("config_source")
            data = json.dumps(manifest, indent=2, sort_keys=True).encode("utf-8")
        parts += [path.relative_to(root).as_posix().encode("utf-8"), data]
    h = hashlib.sha256()
    for part in parts:
        h.update(b"%d:" % len(part) + part)
    return h.hexdigest()


def _digests(base) -> dict:
    return {name: _digest(argv, os.path.join(base, f"entry{i:02d}"))
            for i, (name, argv) in enumerate(_entries())}


def test_every_shipped_output_keeps_its_bytes(tmp_path, monkeypatch):
    monkeypatch.setenv(ENV_OUTPUT_ROOT, "")
    table = json.loads(TABLE.read_text(encoding="utf-8"))
    got = _digests(str(tmp_path))
    assert len(got) == 25
    moved = sorted(name for name in got if table["digests"].get(name) != got[name])
    note = "" if table["numpy"] == np.__version__ else (
        f"; the table was written with numpy {table['numpy']}, this is {np.__version__}")
    assert not moved, f"outputs moved: {', '.join(moved)}{note}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as base:
        digests = _digests(base)
    TABLE.write_text(json.dumps({"numpy": np.__version__, "digests": digests},
                                indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {TABLE}", file=sys.stderr)
