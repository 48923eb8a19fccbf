"""Every file that ``enumerate``, ``exact``, ``train``, ``eval`` and
``eval --model`` write keeps its bytes: the sha256 digests of ``golden.CASES``
are pinned in ``golden_digests.json``.

numpy's SIMD ``exp`` and ``log`` may differ in the last bit across numpy
versions and CPUs, and training turns one such bit into different tables.
So the digests are compared only on a host like the one they were recorded
on (same numpy version, machine and dispatched SIMD targets, ``golden.host``);
elsewhere the test is skipped with the regeneration command in its reason.
A change that alters outputs on purpose regenerates the file with
``PYTHONPATH=src python tests/golden.py`` and says so in CHANGES.md.
"""

import json

import pytest

import golden

RECORD = json.loads(golden.DIGESTS.read_text())


@pytest.mark.parametrize("name", list(golden.CASES))
def test_outputs_keep_their_digests(tmp_path, name):
    if golden.host() != RECORD["host"]:
        pytest.skip(f"digests were recorded on {RECORD['host']}, not {golden.host()}; "
                    "regenerate with: PYTHONPATH=src python tests/golden.py")
    assert golden.case_digests(name, tmp_path) == RECORD["cases"][name]


def test_every_case_has_digests():
    assert set(RECORD["cases"]) == set(golden.CASES)
