"""Byte-identity gate: the solution stores of fixed commands, pinned by digest.

A change that only speeds helpzc up must leave every store byte-identical;
a sound change to the method that alters a store updates the digest here
and says why in CHANGES.md.  Each digest is the sha256 of
json.dumps(store_to_json(bundle, store), sort_keys=True).
"""

import hashlib
import json

import pytest

from helpzc.cli import build_parser, resolve_bundle, solver_options
from helpzc.storefile import store_to_json
from helpzc.verify import SolutionStore, check_pq, check_zc, solve_order_report

GOLDEN = {
    "zc s3":
        "cb6ee6acddeaedebcbd4d43032e1aee746236360f430025a5fa0d128bb32cbd2",
    "pq s3":
        "0f7cd5ab8dad18f56cd1a5a1f0e278aa78b1682e7266eb23307575690241379a",
    "zc s4":
        "8a5480934290d85c35b2e2d0375162f5fafb052d1bdbf3f75b5745c5b464490c",
    "pq s4":
        "46fdb3f8c79fb3d9edf696c65279e20b964ad66bee61bf47180de0454fd78f35",
    "zc a5":
        "d96b4626d1fafa1d2262ad0a78aca8ba07df12965a3b20cb2c4e3c6dfb21da02",
    "pq a5":
        "956a865af0db53b3f7a70b95e5149957f5bd5a6db36af8e00f25eb2b4cda9c04",
    "zc sl23":
        "aa02064decba4b57c2c7e41374a14bdc97f273ddf92586e5ea8e08604685f84e",
    "pq sl23":
        "ac87b928fab1c27ddd6efd282e4d26f89b422ac9be5a2cbd5337dce6a6d055bb",
    "zc m11":
        "9c9e9c1cfee3117b9b2801aa6852ce2c5ef030beb0af285babfaaa630ef52fd3",
    "pq m11":
        "0790b6900e9b5ff24da8b24b0055dd625a16bd2f18e99f5ca32d1b8dfd5a3150",
    "order 12 m11":
        "291509b7eb9f37855e3fa44b757770bf1b561fb9ea8d17f3966997418946dde0",
    "zc --no-shortcuts cyclic:2":
        "9c80d7ba5531a728fa2b2a6bdf24c589936cc093bd15ff0986735d0092cdc627",
    "zc --no-shortcuts cyclic:3":
        "8e83252ea2394f7a921e6aa047039de7a16827aa600436762d6cc237eccd8715",
    "zc --no-shortcuts cyclic:4":
        "22d3f37a4c3af16ffa3857c6465329b7ec7091df598629804350296249d67b19",
    "zc --no-shortcuts cyclic:5":
        "8d45d100e2e497ca206685e2fd77564fe8b5cfd109ae3e134d892f4683f737f5",
    "zc --no-shortcuts cyclic:6":
        "6dd966dabbc437b2c5dbe08ffb7ba0f2340359f382263dc5a84e2147666de016",
    "zc --no-shortcuts cyclic:7":
        "74feb7095239a0675d414375e1c75712df0ff4629121a8c2f5ba4ac6a8ca0a8e",
    "zc --no-shortcuts cyclic:8":
        "8523fc7209eaf2262e7cfbfde4bd612e87085095d1dfe6bc23245b23ef081f8a",
    "zc --no-shortcuts cyclic:9":
        "233c2c71861b409dd2a0ef47e446da9658af13c010899f55900eafbd260f7261",
    "zc --no-shortcuts cyclic:10":
        "3a772c15ef936d8db230b71f0ce5288e42c7b63bf63e10f88d7e23fe7d0afbc2",
    "zc --no-shortcuts cyclic:11":
        "7c9e51621ad067fa664ee4ed8236d180b9146be07575a036ba72f820b3754196",
    "zc --no-shortcuts cyclic:12":
        "a6ee5514c365ab08055f8bbf2e81faeab2f06bb3119724b2bffe69a956f3ea89",
    # recorded when a redundancy sweep still ran on systems of more than 40
    # rows, as on cyclic:18; the sweep never changed a store
    "zc --no-shortcuts cyclic:18":
        "c8c85502173003ef8883ed914d4c0c86046a2fca91afe9dc167e4ae599117e24",
    # recorded when every combination of proper powers was solved, not one
    # per Galois orbit
    "zc --no-shortcuts cyclic:24":
        "23faaf2c5ba1b497641c1eea5de26c203015b74de72321a6286f941d6cc8cdc8",
    "zc --no-shortcuts cyclic:36":
        "1dd6e429a4b693d19bb5cce628569d29d7c4bcd6637aa79a5501aaeda70c4d4c",
    # the flag paths: the p-constant relaxation only prunes combinations the
    # full system also rules out, so its stores equal the default ones, and
    # it hands the constant terms a row subset and a witness level
    "zc --p-constant m11":
        "9c9e9c1cfee3117b9b2801aa6852ce2c5ef030beb0af285babfaaa630ef52fd3",
    "pq --p-constant m11":
        "0790b6900e9b5ff24da8b24b0055dd625a16bd2f18e99f5ca32d1b8dfd5a3150",
    "zc --no-brauer m11":
        "5228110c5d16d7700e6d9501df84dec9fafdcef549b1dc69ece694cb6b02df99",
    "zc --no-shortcuts --p-constant cyclic:18":
        "c8c85502173003ef8883ed914d4c0c86046a2fca91afe9dc167e4ae599117e24",
    # node budgets at the size of a search: M11's order 4 needs exactly 5
    # nodes and the top system of cyclic:72 exactly 71, so a change to a
    # lattice basis or a search tree moves these stores
    "zc --max-nodes 5 m11":
        "9a43ed686b11f5a6ca9abf4b05a7971c8f452778ff1c190486af4e0706e9e965",
    "zc --no-shortcuts --max-nodes 70 cyclic:72":
        "6ccbba881934f72399998ba26d7628ecf410295bb7a3647318c5230d4286d8fd",
}


def digest(bundle, store) -> str:
    text = json.dumps(store_to_json(bundle, store), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def run(command: str) -> str:
    """Digest of the store one golden command leaves behind, its words
    parsed into options and a bundle as the CLI parses them."""
    args = build_parser().parse_args(command.split())
    options = solver_options(args)
    bundle = resolve_bundle(args.bundle)
    store = SolutionStore(bundle.group_name)
    if args.command == "order":
        solve_order_report(bundle, args.k, store, options)
    else:
        checker = check_zc if args.command == "zc" else check_pq
        checker(bundle, options, store)
    return digest(bundle, store)


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_store_digest(command):
    assert run(command) == GOLDEN[command]
