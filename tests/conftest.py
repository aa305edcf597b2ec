import hashlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GUARDED = ("src", "tests", "configs")


def _source_tree() -> dict[str, str]:
    """SHA-256 of every file under the guarded directories, bytecode caches aside."""
    return {
        str(path.relative_to(ROOT)): hashlib.sha256(path.read_bytes()).hexdigest()
        for top in GUARDED
        for path in sorted((ROOT / top).rglob("*"))
        if path.is_file() and "__pycache__" not in path.parts
    }


@pytest.fixture(scope="session", autouse=True)
def source_tree_unchanged():
    """Fail the run if a test creates, changes or deletes a file in the source tree."""
    before = _source_tree()
    yield
    after = _source_tree()
    changed = sorted(
        name for name in before.keys() | after.keys() if before.get(name) != after.get(name)
    )
    if changed:
        pytest.fail(f"tests wrote into the source tree: {changed}")


# Trial-kernel block and chunk sizes small enough that a test's few hundred
# trials cross blocks and its deployments of a few thousand points cross chunks.
SMALL_BLOCK = 128
SMALL_CHUNK = 2**11


@pytest.fixture
def small_kernel(monkeypatch):
    """Run the crowd kernel with ``SMALL_BLOCK`` trials per block and ``SMALL_CHUNK`` points."""
    from crowdharvest import harvest

    monkeypatch.setattr(harvest, "_TRIAL_BLOCK", SMALL_BLOCK)
    monkeypatch.setattr(harvest, "_CHUNK_POINTS", SMALL_CHUNK)
