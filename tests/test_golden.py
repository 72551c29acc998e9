"""Golden output gate: stdout bytes and record bytes for a fixed argument set.

Each command's stdout is pinned by its SHA-256, and each record it appends is
pinned by its experiment id plus the SHA-256 of ``comparable()`` (timings
excluded). A refactor of the search or counting code must leave every digest
unchanged. After a deliberate output change, print the new table with
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

import hashlib
import io
import os
import sys
from contextlib import redirect_stderr, redirect_stdout

from exfree.cli import main
from exfree.harness import load_records

K4_MINUS_E = "g6:C}"
P3 = "g6:Bg"
RECORDS = "golden.jsonl"

SOLVE = [
    # branch-and-bound on 10 and 18 edges
    ("solve", "--graph", "gen:complete:5", "--pattern", "K2", "--forbid", "gen:complete:3"),
    ("solve", "--graph", "gen:gnp:8:0.6:1", "--pattern", "K3", "--forbid", "gen:complete:4"),
    ("solve", "--graph", "gen:gnp:7:0.6:1", "--pattern", "K2", "--forbid", "gen:cycle:5"),
    ("solve", "--graph", "gen:gnp:7:0.6:1", "--pattern", "K3", "--forbid", K4_MINUS_E),
    ("solve", "--graph", "gen:gnp:7:0.6:2", "--pattern", "K2", "--forbid", "gen:cycle:5",
     "--ties"),
    ("solve", "--graph", "gen:complete:6", "--pattern", "K2(2)", "--forbid", "gen:complete:3",
     "--ties"),
    ("solve", "--graph", "gen:gnp:7:0.6:1", "--pattern", P3, "--forbid", K4_MINUS_E, "--ties"),
    ("solve", "--graph", "gen:gnp:8:0.6:1", "--pattern", "K2", "--forbid", "gen:complete:3",
     "--mode", "heuristic"),
    # past the edge budget: exit 2 and no stdout
    ("solve", "--graph", "gen:complete:9", "--pattern", "K2", "--forbid", "gen:complete:3",
     "--bnb-edges", "35"),
]

OTHER = [
    ("count", "--graph", "gen:gnp:8:0.6:1", "--pattern", P3),
    ("contains", "--graph", "gen:gnp:8:0.6:1", "--forbid", "gen:cycle:5"),
    ("verify", "--claim", "extremal-colorable", "--graph", "gen:gnp:7:0.5:3",
     "--forbid", "gen:cycle:5", "--k", "3", "--eps", "1/3", "--out", RECORDS),
    ("verify", "--claim", "near-colorable", "--graph", "gen:gnp:6:0.7:1",
     "--forbid", K4_MINUS_E, "--k", "3", "--out", RECORDS),
    ("verify", "--claim", "prediction", "--n-min", "4", "--n-max", "7", "--k", "3",
     "--m", "2", "--t", "1", "--forbid", "gen:complete:3", "--out", RECORDS),
    ("verify", "--claim", "dichotomy", "--graph", "gen:complete:5", "--forbid",
     "gen:complete:3", "--k", "3", "--gamma", "9/10", "--out", RECORDS),
    ("scan", "--forbid", "gen:cycle:5", "--k", "3", "--n", "5", "--fractions", "0,1/2",
     "--trials", "3", "--seed", "4", "--out", RECORDS),
    ("replay", "--record", RECORDS),
]

FORMULA = [
    ("formula", "aes-threshold", "--k", "4"),
    ("formula", "es-threshold", "--k", "4"),
    ("formula", "predict-clique", "--n", "10", "--k", "4", "--m", "3"),
    ("formula", "predict-blowup", "--n", "12", "--m", "2", "--t", "2"),
    ("formula", "partition-lower-clique", "--n", "10", "--k", "4", "--m", "3", "--eps", "1/10"),
    ("formula", "partition-lower-blowup", "--n", "12", "--m", "2", "--t", "2", "--eps", "1/10",
     "--c", "1/2"),
    ("formula", "removal-clique", "--n", "10", "--k", "4", "--m", "3"),
    ("formula", "removal-blowup", "--n", "12", "--m", "3", "--t", "2"),
    ("formula", "removal-mixed", "--n", "12", "--k", "4", "--m", "2", "--t", "2"),
    ("formula", "sparse-bound", "--n", "12", "--d", "1/4", "--m", "2", "--t", "2"),
    ("formula", "f-maximizer", "--n", "12", "--m", "2", "--t", "2"),
]

COMMANDS = SOLVE + OTHER + FORMULA

# (exit code, sha256 of stdout) for each entry of COMMANDS, in order
STDOUT = [
    (0, '1529570764b10dfb45ef7e696858ad6fb12f9cf790050bd879f4d3ce6765809e'),  # solve --graph
    (0, '7415f652bdb6eac233d736c99f8d9ce63b4ffe9ece1dc197357295edc9937a95'),  # solve --graph
    (0, '7324aa018fb1b92e3f53038d4114458baf4536fc2bb38dcb18ded20582f9bd18'),  # solve --graph
    (0, '72fe9ff4ad65a778bb3c7afe27f23be2d69625c065265c24b23285b01d2d2909'),  # solve --graph
    (0, 'be8dd634bfe042ebb9cfd9d5ff5a23af5acc28c75de35594c627e83f52d3ab35'),  # solve --graph
    (0, '24d88686752ad900f37ec64a44927d51e8804267ba77d7a1c33d1e0312ad1d5e'),  # solve --graph
    (0, 'a481bcf9eac23773d9e8c9b1233ac8cfdb606fd130aad380d12a8d6e3316cdbe'),  # solve --graph
    (0, '38f55f7992d1558d4c203a9a3a863f870088bab70303c8c4c07204bded238cf8'),  # solve --graph
    (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),  # solve --graph
    (0, '89e56b272669de11431602f3c77e560ecf6c61512fa8db5ac0006606e88d5282'),  # count --graph
    (0, '5040625b1fb6fa4af07226683f6e6003b29e5e70b16f8cfb24be7a752393f0ee'),  # contains --graph
    (0, '7e54692cbc6e8686b3be1f2fa07fafff2d13f9e1abd543ab59dfaa587051854a'),  # verify --claim
    (0, '01c460ba297c6cbe21000f3a8635ee76208195e44b0e4f114cf1ca643aa23509'),  # verify --claim
    (0, '7f278ea08b83f13cafd9700b29c4b4d985659273158ec8dda1791480edfb1e7e'),  # verify --claim
    (0, 'b2dd392a7a54eec4f0046457fdedfc2faaa4cae30cf21c89344482e4da9b9352'),  # verify --claim
    (0, '1216be64d7298d11ac810326acc124a2f2851e2940e7d79c3c93f3e1314b62d3'),  # scan --forbid
    (0, '0f191acea6111a0759d0a43ae68b35ac4df48361c66cbb7bf2b8c201eb457ec9'),  # replay --record
    (0, '36bcb62b7da0f45b595a5443d5c73d060baa491b703497f1c8af88dec27916bb'),  # formula aes-threshold
    (0, '24fb0ee0ce3e1f5ef10891e4cd9a120a3be3737d1cde40e3f0da2d70c641d2d1'),  # formula es-threshold
    (0, '200f0ab275b6828933a518b68c14cd97617ca3b7e0007da8536093a1aa568fb0'),  # formula predict-clique
    (0, '27ccf74a879d087018575d7ca5df6ca876f1dea58f6c5282bc67153a95b9ed12'),  # formula predict-blowup
    (0, 'cf2aea952881394f1fac2ceb6a7a91242e1fea8ee405c2026a5fcf81edfa3872'),  # formula partition-lower-clique
    (0, '65ac276bc2e2670cf59535b7e29b69b31758a3dc3278875b924a7671d8be9bfc'),  # formula partition-lower-blowup
    (0, 'f73b3c34774016f495b56342f4be1b1cf34884376b7df3c58592245a935a7fd4'),  # formula removal-clique
    (0, '01a8c3a0832eaa75b3ecc8358ae4f9d14555e999f5c10d8d002051200255edbb'),  # formula removal-blowup
    (0, '86b06869a9e00e486a0d737efdb7755fe965619bd65b0ea975925ce671fb8f26'),  # formula removal-mixed
    (0, '1dbab7243271fddfc641a924b89153a19bf79e766c52b69a103f6c7a9bbcabd3'),  # formula sparse-bound
    (0, 'a602d02f7f360dedd7ddb6f544efb43e102eb98519db8dbf3f273f5d0a648e73'),  # formula f-maximizer
]

# (experiment_id, sha256 of comparable()) for each record, in file order
RECORD_DIGESTS = [
    ('e3b797bf6cdddd3f', 'acb260e1b4c2563cea7a5756e903a74a24169091a338396f27b21a7750a7e273'),
    ('8fca2f0b85d100c1', '382506f93d404899efb2d7145106d2d8f3d29356b6a6384c81bb0ba3e25a1ad3'),
    ('d3212a3b1a7a9780', '6c75103dd9823d0b1e6d6d0cd849394df27aeac512c5d32bafae40c9659321cc'),
    ('05b297ceed86bc6e', '6908cf2bc7ea3f7219cbb38f8caec38e5d571611bcc1d45a34d3d982f8317038'),
    ('770f681907aae317', '888a3d9d09dab07e75db0aa5add30c479811630fc9b407856e2d315a61ab4721'),
]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _run(argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def _collect():
    """Run every command in order in the current directory."""
    stdout = []
    for argv in COMMANDS:
        code, out = _run(argv)
        stdout.append((code, _sha(out)))
    records = [(r.experiment_id, _sha(r.comparable())) for r in load_records(RECORDS)]
    return stdout, records


def test_golden_stdout_and_records(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    stdout, records = _collect()
    assert len(STDOUT) == len(COMMANDS)
    for argv, got, want in zip(COMMANDS, stdout, STDOUT):
        assert got == want, " ".join(argv)
    assert records == RECORD_DIGESTS


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        stdout, records = _collect()
    print("STDOUT = [")
    for argv, row in zip(COMMANDS, stdout):
        print(f"    {row!r},  # {' '.join(argv[:2])}")
    print("]")
    print("RECORD_DIGESTS = [")
    for rec in records:
        print(f"    {rec!r},")
    print("]")
    sys.exit(0)
