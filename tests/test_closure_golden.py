"""Pinned CLI output: the posets built by the closure engine, the
``reproduce-paper`` table, the Lyndon tree census and the witnesses of
failing labeling checks.

Each command's stdout must hash to the value recorded before the change named
in the comment above its entry; entries without one were recorded before the
three families' builders (partitions, Lyndon forests, sorting dual) were moved
onto ``poset.closure``.  Element order and payloads are part of the output.
"""

from __future__ import annotations

import hashlib

import pytest

from whitneydual import cli

GOLDEN = {
    "build weighted 5":
        "bba4dfc2b5e582ed6fa26ba5f2cd7d66ab502d524f3c1e8d510bc97c23b17a69",
    "build pointed 5":
        "2988021f0b37782b6392cd30ca6524956cfdd0d4620843b33fef506ad94c0e94",
    "build sf 5":
        "f863fb618e77ae5b5a940c6fe9ee9a1efc3000eeb8018ef45af41c0fe0022bf6",
    # recorded before the two trees of a spanning-forest join shared their
    # edge list; the same value as the benchmark's expected output
    "build sf 6":
        "00276faa2dfa36629c17d3479a086394f42a1fc34ee6d4d1600adc233963621a",
    "build partition 6":
        "b36b11ef726c8aa6737dcfeb5f9054dc3a700818e68244ef9b8749bc9d36a801",
    "build pointed 5 --labeling lambda_bullet":
        "cccf952b0e7248ae264cf18bb67f63147018c03c6c7c8d7e25bf8d56fd32e808",
    # recorded before a labeling held one label per sorted cover
    "build weighted 5 --labeling lambda_w":
        "2317442c9c218773d16dffee527f79bf552514fe0dd8cb4eb49c094775b99933",
    "build pointed 4 --labeling lambda_tilde":
        "6bfdd6784f44ac339892d4007de0d1fba52baa8c49bf11fd0d72e6bdd3711d76",
    "build pointed 4 --dot --labeling lambda_bullet2":
        "cfb6063a54ab7ad9ee3341fb12bbc98aa1723b60598d3c1ce0f2697e9b707416",
    "flyn pointed 5 --json":
        "bb45ac825cdf26cc6861c15370a203f52dbd6bf254bd5a76eceef25f2a97c8e8",
    "flyn weighted 5 --json":
        "573511d4a16dcfe3707667621421e189ff8593f0f1b7fa986ae532fdcba27a3c",
    # recorded before each tree vertex cached its own rules
    "flyn pointed 6 --json":
        "cc9ec4ee2efa60f7f95e88ca4864e10bd4c1308b168df6557c90e704c9b85789",
    "flyn weighted 6 --json":
        "f5464fc2c3684e03146dbfe008efae54697764a4357d5e4ab9c50716a2e3b710",
    "dual pointed lambda_bullet 5 --json":
        "470fe6240dac5f42007b44ecd6b36dd962e0ac8af61d791ad73c02719b38a939",
    "dual weighted lambda_w 5 --json":
        "3df4683adcd76bcc3c4b2761eab0db176748d4c829737a53037631d80b108a8f",
    # lambda_bullet2 is not EW, so the dual's payloads carry "[unvalidated]"
    # and the command exits with the duality code
    "dual pointed lambda_bullet2 4 --json --bypass-ew-check":
        "4d36b22588e7bcbb0b410d2baddf2f74c9338b206f0e2ccae9632e777241b665",
    # recorded before the forest-chain criterion checked the bijection as an
    # isomorphism and before the census read each tree's point by a colour walk
    "reproduce-paper":
        "257babf579fa738c0e2594bae856d223de7135a16561bde5f5d266989fc6296f",
    "counts 6 --flavor pointed":
        "9e109697a53d664e4748ca3596f6dc38f459301fd3215b5e441b0ce9f77afe44",
    "counts 6 --flavor weighted":
        "81b65ee9ba1cb8034dee53ceb7731d89bb484698b94b162c1d22b2a7301f1e7e",
    # recorded before every failing labeling check built its witness through
    # one helper: lambda_tilde fails ER, the rank-two count, injectivity and
    # EW; lambda_bullet fails EL (not lex-first); lambda_bullet2 fails the
    # switched-chain count
    "verify pointed lambda_tilde 5":
        "d668f5a0ee7c48a1ca27e6392a76243ff0ac419e673a29f96b6529c11ae58361",
    "verify pointed lambda_tilde 5 --json":
        "2b5f1685a29f6339ba47e9c54084ca32b222ee9f40df32a5db91241a5883f53f",
    "verify pointed lambda_bullet 5":
        "342449cf94eca76095b043d78cb8e769ee87aa3faf6c68b042efe6f6e3607207",
    "verify pointed lambda_bullet2 5 --json":
        "b50615f4ea4dd6f2ffb2330d6a2d137148a54481d488d3a66e446783b8a40763",
}

EXIT = {
    "dual pointed lambda_bullet2 4 --json --bypass-ew-check": 20,
    "verify pointed lambda_tilde 5": 10,
    "verify pointed lambda_tilde 5 --json": 10,
    "verify pointed lambda_bullet 5": 11,
    "verify pointed lambda_bullet2 5 --json": 12,
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_cli_output_is_pinned(command, capsys):
    assert cli.main(command.split()) == EXIT.get(command, 0)
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[command]
