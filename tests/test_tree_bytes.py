"""The tree core's outputs are pinned byte for byte.

Each sha256 below was recorded before the tree core was keyed on child
identities (interning on child tuples, forests compared by their trees, one
preorder walk for both renderers); none of those changes may move a byte.
Those of ``degree-list 22`` and ``23`` were recorded while the table still
stored every prime up to the largest rank the levels ask for.
"""

import contextlib
import hashlib
import io
import random

import pytest

from matula import PrimeTable, arborify, print_forest, render
from matula.cli import main


def _stdout(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0
    return out.getvalue()


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _arborify_cases():
    for n in (1, 2, 9, 20, 2597, 123456, 999983):
        for fmt in ("text", "json", "dot"):
            yield f"arborify {n} --format {fmt}"


def _cuts_cases():
    for p in (2, 3, 17, 59, 73, 1009, 99991):
        for fmt in ("text", "json"):
            yield f"cuts {p} --trace --format {fmt}"


PINNED = {
    "table --from 1 --to 30000": "21f503d7ddf83ce04ac5512017bb1e6e5fc12e5d32f6126809f9d527189225ce",
    "table --from 1048476 --to 1048676": "2864949bdb7ba970063f72b172f5af01a6a783dea845eb12cb4bab823b177e14",
    "arborify 1 --format text": "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b",
    "arborify 1 --format json": "30ae3001fd022dd90c9938ff2c38ffb3681ce6f4b5d32f1c6901007db12c23aa",
    "arborify 1 --format dot": "f7ad4bf53461a6ff5c9241b89ec31d8d06ed8d0b9f1be9800dc817ecf0e2de1f",
    "arborify 2 --format text": "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
    "arborify 2 --format json": "53c522180760b496500ed43e41e39539dd42d6a14f11161fcc10045115133312",
    "arborify 2 --format dot": "b50dfa161cf84009ec2afd6aac23a50494f3962e57b8213cc33f7c62b0ab7e0e",
    "arborify 9 --format text": "c9f952df21d24e95d717db0f5b867f3ed7351c1123f639a31d1fcba8095c0b37",
    "arborify 9 --format json": "91ed3c069c238c17e5cf3668c56808a4ad2e7d9584843b30ee19802443dfce18",
    "arborify 9 --format dot": "ce543b329b83344f0db44c19859d72423cf803f260d0952d2d133ee6cbca7551",
    "arborify 20 --format text": "b070dd2e0ae920d39e2de9efb747d0454d50e01a89ac11ad22ba71c9eabaebc0",
    "arborify 20 --format json": "3f7d3d4fd35ce716b60cbab479bc6cc468baf784faa7ac9ca2125cfe153dfd87",
    "arborify 20 --format dot": "2555b20c7bd1c3d4c24aae69e721f4e5fb6de931b65482840161fb61785d3fd1",
    "arborify 2597 --format text": "cee77b9d642c980b1a131225b3447c495d02a4d33dce992789482a79e986402f",
    "arborify 2597 --format json": "abd8d103c96a561ad54d2875e7f4a551fe97c01ffed868dd0a7f5fc92e37482a",
    "arborify 2597 --format dot": "712013c9a4f841cf7b2e5dec807c8441bc2508a5b9e152887ead79cca4851700",
    "arborify 123456 --format text": "fdd485c480fdfdf263c2490cbf93c42c4789c0cbb67a59c205ac68ecbf7655c7",
    "arborify 123456 --format json": "c65b692405ed27134d91f2af8c9257b1b1ae0d95e00a31945bac8f85f8913a50",
    "arborify 123456 --format dot": "a43444328b72b0098a1ce5139e173ffd3dee5030d2248f17734bedb808f75143",
    "arborify 999983 --format text": "8783c58256f7eda1f0b9e9365768e3a2622239ea67b3eaf3894fca3b388f9b35",
    "arborify 999983 --format json": "72b02e617ae17be8a0cdfdd3882ed9e86a0342ba8f45e10fd14d2505089a4a38",
    "arborify 999983 --format dot": "f1c5c823702a5c4bdfe96f4995b1fc68fbbfff0dc10a99966ab268ea49256d93",
    "cuts 2 --trace --format text": "84cca3c494faa910dd626307ac234e3654b813bfbb9497a47762982c18f22f0a",
    "cuts 2 --trace --format json": "968e45523ee5234883b3c998dc7cab39869c64a18c1f5bd79f0030216777b15a",
    "cuts 3 --trace --format text": "aa30f9ce0424f8f4294eb088c0efbebef4321cae348a4e0c7bbad80b40d8db07",
    "cuts 3 --trace --format json": "1eda09116b64284808be48ac5c920a91f1cec80cb8455df192d981cc1c9962c7",
    "cuts 17 --trace --format text": "2802e5764695827323c50f47aa36ad90ec1b972d4b7e1d155c697fb4052ffcc2",
    "cuts 17 --trace --format json": "4aff7f326e34b3bc3ef403a81e341163abb340759726a9fa90482d218df18988",
    "cuts 59 --trace --format text": "0d2ada0cab8737f4e867b49c82aab1891be37ca2eb611610f10879e5eb574f21",
    "cuts 59 --trace --format json": "a84b1eedaeeaa3c4705d65dfc48340902b55575239d1a1b23184ab9528f11798",
    "cuts 73 --trace --format text": "4366ae2ac8f6f3718fa59a83b9b06b665b5bb8953da6f02f0cd2f38460563ad8",
    "cuts 73 --trace --format json": "63155e2018cdc42ad9954e98bc61a806f2dbac646da9b3053721ba81ce905f9c",
    "cuts 1009 --trace --format text": "82157cbdeeba72e507a8a9f772ea02f9fc86422959e08e6b5f02765cbe9aa81c",
    "cuts 1009 --trace --format json": "c01019b555a78c79c58c79671823e1d5ca4fdeb5fd43ae2527fc29b5362efaf3",
    "cuts 99991 --trace --format text": "c931d88df65378f1db2b00411c3427f7c7fea161eb7d4b5c9c55f8a18bc041c3",
    "cuts 99991 --trace --format json": "b7ae6f5c56109d1e07af903168a7fc2b9bf2e0d6e82273c3728dc128582d4f57",
    "degree-list 20": "ccefe6ec78daaa8bb8931dad2bb590b6d5fc8bd1d8c21d8902fe058ee3c1658a",
    "degree-list 22": "0d02def7f7ab23d54ce640aa5c2d6f39b05cc541abf776349a6287e746cbb1f9",
    "degree-list 23": "8b12ce603de4b1d4441e7df990ec49bc8b63f66046cf89678db1870c5bbee202",
    "leaf-class 3 --max 20000": "fd008ac2cb18ec430d70a4660075a6804ffff7ee2b7bd4bed8101fb762b7c988",
    "stats 2597": "30763b54303c8d2c233a8cad7631bf108da7381c9dc6f3894d567f7d8760f029",
    "partners 35": "f4ccd05b3271c386ee55d9876c7450012a3b361e5065c09dc22075e38b3cc35c",
    "pair 3000 --format json": "922337441dc9b016469f84b0e59e67b015492c0fcb7194625613262e2c09e4e9",
}


@pytest.mark.parametrize("argv", list(PINNED))
def test_cli_bytes_are_pinned(argv):
    assert _digest(_stdout(argv.split())) == PINNED[argv]


def _forest_97k() -> str:
    """About 97 KB of canonical forests of random n in [5e5, 6e5] (seed 97)."""
    rng, table, parts, length = random.Random(97), PrimeTable(), [], 0
    while length < 97_000:
        parts.append(print_forest(arborify(rng.randint(500_000, 600_000), table)))
        length += len(parts[-1]) + 1
    return " ".join(parts)


def test_number_of_97k_bytes_are_pinned():
    brackets = _forest_97k()
    assert _digest(brackets) == "149c62e6c084c2a1254a37ff9d56cafe34be810ce5b5d8ba0f55324702c099e7"
    assert _digest(_stdout(["number-of", brackets])) == (
        "a474d12bf31ab4f1dababb62dbaed6f8596168beaa51109cb45dcb789977e8f2"
    )


@pytest.mark.parametrize("fmt", ["ascii", "dot"])
def test_render_bytes_are_pinned(table, fmt):
    text = "\n".join(render(arborify(n, table), fmt) for n in range(1, 3000))
    assert _digest(text) == {
        "ascii": "fa84297856bddb2603700218bb43888b4ec6524d62aa04eb747a9484ec5c5f0b",
        "dot": "91b43f9fac196badc0fc1fb03063c456d5c50f10556b5bc30bd53c479d895f53",
    }[fmt]
