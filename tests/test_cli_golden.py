"""Golden SHA-256 digests of every artefact ``cli.run`` writes.

Each case runs one small config and compares the bytes of every written
file with its recorded digest, and the set of written files with the set
recorded. A change that moves a single bit of any artefact (a different
float, another row order, one more key) fails here; an intended change
re-records the table and says so.
"""

import hashlib
import json

import pytest

from opiniondyn.cli import run
from opiniondyn.presets import FJ4_LAMBDA, FJ4_U, FJ4_W, preset_config

X12 = [0.0, 0.05, 0.125, 0.2, 0.3, 0.32, 0.5, 0.55, 0.7, 0.875, 0.9, 1.0]
LAM12 = [0.9, 0.5, 1.0, 0.75, 0.8, 0.6, 1.0, 0.95, 0.7, 0.85, 0.5, 1.0]
P4 = [[0.0, 0.5, 0.25, 0.25], [0.5, 0.0, 0.5, 0.0], [0.2, 0.3, 0.0, 0.5], [1.0, 0.0, 0.0, 0.0]]
W3 = [[0.5, 0.25, 0.25], [0.0, 0.5, 0.5], [0.25, 0.25, 0.5]]
BC_OUTPUTS = ["trajectory", "summary", "clusters", "energies"]
GOSSIP_OUTPUTS = ["trajectory", "events", "cesaro", "summary"]


def _preset(name, **overrides):
    config = preset_config(name)
    config.update(overrides)
    return config


CONFIGS = {
    "hk-symmetric": {
        "model": "hk", "params": {"d": 0.2}, "x0": {"uniform": [0.0, 1.0, 20]},
        "seed": 3, "outputs": BC_OUTPUTS,
    },
    "hk-symmetric-open": {
        "model": "hk", "params": {"d": 0.125, "closed": False}, "x0": X12,
        "outputs": BC_OUTPUTS,
    },
    "hk-asymmetric": {
        "model": "hk", "params": {"d_left": 0.1, "d_right": 0.25}, "x0": X12,
        "outputs": ["trajectory", "summary", "clusters"],
    },
    "hk-per-agent": {
        "model": "hk", "params": {"d_per_agent": [0.1 + 0.02 * i for i in range(12)]},
        "x0": X12, "outputs": ["trajectory", "summary", "clusters"],
    },
    "hk-shifted": {
        "model": "hk", "params": {"d": 0.25, "eta": [0.01 * i for i in range(12)]},
        "x0": X12, "outputs": BC_OUTPUTS,
    },
    "hk-ball-max": {
        "model": "hk", "params": {"d_per_agent": [0.4, 0.5, 0.3, 0.45, 0.35, 0.5],
                                  "norm": "max"},
        "x0": [[0.0, 0.0], [0.3, 0.1], [0.2, 0.5], [0.9, 0.8], [1.0, 1.0], [0.6, 0.4]],
        "outputs": ["trajectory", "summary", "clusters"],
    },
    "truth": {
        "model": "truth", "params": {"d": 0.2, "lam": LAM12, "target": [0.4]}, "x0": X12,
        "horizon": 300, "stop_tol": 1e-12, "outputs": BC_OUTPUTS,
    },
    "inertial": {
        "model": "inertial", "params": {"d": 0.2, "lam": LAM12}, "x0": X12,
        "horizon": 300, "stop_tol": 1e-12, "outputs": BC_OUTPUTS,
    },
    "phi": {
        "model": "phi", "params": {"preset": "hk", "d": 0.2}, "x0": X12,
        "horizon": 200, "stop_tol": 1e-12, "outputs": ["trajectory", "summary", "clusters"],
    },
    "tetrahedron-merge": _preset("tetrahedron-merge"),
    "heterophily": _preset("heterophily", x0={"uniform": [0.0, 1.0, 15]}, horizon=300),
    "altafini3-thinned": _preset(
        "altafini3", record_every=7, outputs=["trajectory", "summary", "classification"],
        params={"matrix": [[0.0, -1.0, 0.0], [-1.0, 0.0, 0.0], [2.0, 1.0, 0.0]],
                "t_end": 4.0, "dt": 0.01},
    ),
    "flow-matrix-file": {
        "model": "flow", "params": {"matrix": {"file": "w.csv"}, "t_end": 2.0, "dt": 0.05},
        "x0": [0.0, 1.0, 3.0], "outputs": ["trajectory", "summary", "classification"],
    },
    "degroot-constant": {
        "model": "degroot", "params": {"matrix": W3}, "x0": [0.0, 1.0, 2.0], "horizon": 40,
        "outputs": ["trajectory", "summary"],
    },
    "degroot-schedule": {
        "model": "degroot",
        "params": {"schedule": [{"until": 5, "matrix": W3},
                                {"until": 12, "matrix": [[1.0, 0.0, 0.0], [0.5, 0.5, 0.0],
                                                         [0.0, 0.5, 0.5]]}]},
        "x0": [0.0, 1.0, 2.0], "horizon": 12, "outputs": ["trajectory", "summary"],
    },
    "fj": {
        "model": "fj",
        "params": {"lam": FJ4_LAMBDA.tolist(), "w": FJ4_W.tolist(), "u": FJ4_U.tolist()},
    },
    "balance": {
        "model": "balance", "params": {"matrix": [[0, 1, -1], [1, 0, -1], [-1, -1, 0]]},
    },
    "gossip-degroot": {
        "model": "gossip-degroot", "params": {"p": P4, "gains": [0.5, 0.25, 0.75, 0.5]},
        "x0": [0.0, 1.0, 2.0, 4.0], "horizon": 400, "thin": 7, "seed": 5,
        "outputs": GOSSIP_OUTPUTS,
    },
    "gossip-pair": {
        "model": "gossip-pair", "params": {"p": P4}, "x0": [0.0, 1.0, 2.0, 4.0],
        "horizon": 400, "thin": 3, "seed": 6, "outputs": GOSSIP_OUTPUTS,
    },
    "gossip-fj": _preset("fj-gossip4", horizon=2000, thin=9, seed=7, outputs=GOSSIP_OUTPUTS),
    "dw": _preset("dw-basic", x0={"uniform": [0.0, 1.0, 15]}, horizon=1500, thin=11,
                  outputs=GOSSIP_OUTPUTS),
    "dw-heterogeneous": {
        "model": "dw-heterogeneous",
        "params": {"d": [0.3, 0.1, 0.25, 0.2, 0.15, 0.3, 0.05, 0.2, 0.1, 0.3], "mu": 0.5},
        "x0": {"uniform": [0.0, 1.0, 10]}, "horizon": 800, "thin": 5, "seed": 8,
        "outputs": GOSSIP_OUTPUTS,
    },
    "two-r-csv": _preset("table1", params={"n": 20, "d_list": [0.1, 0.25], "trials": 3}),
    "two-r-json": _preset("table1", params={"n": 20, "d_list": [0.1, 0.25], "trials": 3},
                          format="json"),
    "hk-sweep": _preset("hk-termination-sweep",
                        params={"instances": 6, "n_range": [2, 12], "d_range": [0.05, 0.5]}),
}

MATRIX_CSV = "0,1,0.5\n0.25,0,0\n1,0,0\n"

GOLDEN = {
    "altafini3-thinned": {
        "classification.json": "8b2ce684f4ca817fa3b6eb9d0c343e305875ad3da75d59874702d0bc0c44e00c",
        "summary.json": "1d18fa6d42740894088e6860fcda30575badc0c84b7577c6ad7bfc3b65798ca7",
        "trajectory.csv": "26af0e5b6c05e4655342ebefc6ef302346d4b1e43cb5992161d6503aeac6688c",
    },
    "balance": {
        "balance.json": "a8843f0c1f309dc7a6f6cf6c63f136669c88119283970b3dcd5a14f8712a6ca3",
    },
    "degroot-constant": {
        "summary.json": "0e4c5ca8369226245eb3064c0bf92cde6fc6fd241733a15524796ec81b61e21f",
        "trajectory.csv": "0682a39b7c405e273ab1763a2882cf7cdbffeb2d9ddefe0259e54d9c311250fd",
    },
    "degroot-schedule": {
        "summary.json": "151ba3094a53362e50e47ed9e4d72503a680324b22b24c0964028694dae04e51",
        "trajectory.csv": "468dd7b2aa7ec770c3371a05048eb93ef8e516029040917a9f1e0184208f6ed7",
    },
    "dw": {
        "cesaro.csv": "662c18ea133b15edbf14cbdda3fd91e2feadc000f4f787f988efe4437ecdab98",
        "events.csv": "3657555c32c9c49546ff108adfe88e0b2fd7e845baf449a2f11d9e4669297322",
        "summary.json": "27867c6895699a80685aeed648e96dc35c899dcc9a9b65b50eb566748324b1f7",
        "trajectory.csv": "ffb699b7819431aaf086d8f1396ce2113cc64a08bc3398914eacd1ba467857c2",
    },
    "dw-heterogeneous": {
        "cesaro.csv": "cba8dbdc6d9fee466e22ff4f6cd487facbcadb3f50d7232cc974062a5dd70926",
        "events.csv": "f1eba70bb559d02cb21613300583a680d5630f18d1548ecfe99e3e3b4e9ce4eb",
        "summary.json": "9035198f6bfde07295118aa975222aabd897f9c1f266c62bb737646943d7e1d8",
        "trajectory.csv": "cf88afbf51e00aa69533f08fbd74ce0fd6a22c36108fcc66f12a0f0812fd5c0d",
    },
    "fj": {
        "report.json": "6f1850cdc62cfadb7684c91677f3f449516993e175befbe3e3f3ea6b7c4a6b0f",
    },
    "flow-matrix-file": {
        "classification.json": "0d3fd58ef66f9fc9c0f3485da3cd537839d291d8376f00f664805259361b628d",
        "summary.json": "d37daa1e3f34f62f45876d88ba2baa2a9601f1b32f7b5decfd06262dde4b3a82",
        "trajectory.csv": "337360006b09f21a282351616866814714467d76ed10b9407b8eece8a556a4c8",
    },
    "gossip-degroot": {
        "cesaro.csv": "872c9a5cce6fc432745924ad8ab6617776d9fe3c2bc2c3b3c75f98064608a023",
        "events.csv": "343f42a1d497a1e270600c122cec86a28c4ed23d5aedf4d49b4c1f7d4ff84321",
        "summary.json": "aa9c361b5500be4e1cb10a815011335abcc54c302cdbbda1bcfdd3337765f62d",
        "trajectory.csv": "581c43bb447431a177ce6da0abc16828c2a9aac24c64fc2685fcb18b31c45cd1",
    },
    "gossip-fj": {
        "cesaro.csv": "eab55a9c8e8f2d9ee65e398304c09997545e37fd98fb999b8b9236503d5e92bf",
        "events.csv": "3b6b37ae99ed9bb8da6bb13505ffc9d25a32cb4cf549b888fa341c2af2d1636b",
        "summary.json": "57f666395f20f02e21da1bfa383148f45ee951f75ece7b722b446ba239faafa3",
        "trajectory.csv": "7ef0c2c508c4a47c2944488f926a1a6feb3f073053563454ca1cf50d9488c06b",
    },
    "gossip-pair": {
        "cesaro.csv": "19cb1001aa36e7d7bc2741872992f652fbe73025c14d1fd3b6c0354544650050",
        "events.csv": "0a350c89b4f1c14f4c3aae92bd47ed2a8f73209e657cab24ce02a8a2c4ef8331",
        "summary.json": "1a55397f4d49c6e50fcb9447342ecec96557436ff7f3da5a31ab86a80ae3a63b",
        "trajectory.csv": "4f67fad1ff0f09668ce3de9871419f186cdfdb8b66602341f21c57a28d67651a",
    },
    "heterophily": {
        "clusters.json": "861c9f5c7e054b4ba0ce040b5c845097b770b07f0433304eb5abea0ae7084d6b",
        "summary.json": "6a725e0c0ab5bdc7e0567cd858146459c95eb684c9d343e8ed2442d2cd56b3f7",
        "trajectory.csv": "f639d6db5a332c3e9e6b9918a0955d362eb3469bfca648edd5cce710b673e47f",
    },
    "hk-asymmetric": {
        "clusters.json": "ed4c4002ad8043c0eeb58f5453ba291ba1c96e8eb6a7c8d23eec906193f8bf04",
        "summary.json": "650ad0b12f24c47201f6ce9a368980b9619a1a0c54d21a5284436899af8d514f",
        "trajectory.csv": "38411cc03ec780ceba62b79eeba3dbc23b877ad59f5e141d371b558b113b626b",
    },
    "hk-ball-max": {
        "clusters.json": "d9915a04709ffc995bf6967813986b7a03e3b2c47d4852829f769779a27648e9",
        "summary.json": "903f736fa2489b0d5d76b712b40c0cf26dc313155494949da39b176ee896c448",
        "trajectory.csv": "fc906c9ba7d6e82e5ff3d1f9720495db2c3f062048a1424b68894bf4947a60ae",
    },
    "hk-per-agent": {
        "clusters.json": "db2dc09375f9a6578b7cbae9f9a36b77c6271ef9c27aa01615a8ea8c1eb43c7e",
        "summary.json": "0abe0955db34970dd14374279692a7e4dba912a4d657aaefc13b5676a3ad43b5",
        "trajectory.csv": "51a2978ef76f13bd023accfec013417247fd675f6c678213e57cd4a9e33b4199",
    },
    "hk-shifted": {
        "clusters.json": "8d3f5463e317b6331d5269b31e1d840fa51955f47f0500851916e285babd45b7",
        "energies.csv": "ba1d701a962defd36b92ac96599a5d40ea6bb890790ed6479f1e0f776eeca654",
        "summary.json": "4d71553c4bfa862276f997fe0a8fcb0508ef962c8139db561bba25b84621c636",
        "trajectory.csv": "cc0cfc448128e58bcd84d0bcbf9f1ae2dc8def3511897f75abcb32682b8f9de0",
    },
    "hk-sweep": {
        "sweep.csv": "1e1c2ca6508b47ea28dd0e2dd5f6488ce904d66bf85481102d6975008040768c",
    },
    "hk-symmetric": {
        "clusters.json": "9c76b297c17384e5136ac69babc991df67005de1c1dbb6a645b9660be9dc9f0d",
        "energies.csv": "9b60bf34013d9e8c411b7dd392da20d27e75fe6ee38e27c6e163a7878589fee8",
        "summary.json": "64e50acedab1fb1decd74281d5b5e42672a34fb8dc22e2b54aa23a0e93ca9205",
        "trajectory.csv": "e7782d180650489d307bd90363c2a701954277b4e19ec4255fb0fb028f344f58",
    },
    "hk-symmetric-open": {
        "clusters.json": "5877b73e98f66854753baafcd3342cb08fcb8bc22dfb7d26a6bd823edac4b132",
        "energies.csv": "048d5bea224231bc11e871c514286ad63caa434805899db2e569fc7b8773931b",
        "summary.json": "8d1285a9933f4b7c6c4f14f0d606bbd5fd2239fecf4487dab152e8f2fd0dadff",
        "trajectory.csv": "eceac729b671c9d998cc66bd676e3216c832bfb34f3440743ee55e96987f9600",
    },
    "inertial": {
        "clusters.json": "c2a99c2a083dc85fbd82c8cc5f88af4fe9089ed9fb94b4196be67fe46a4eb69c",
        "energies.csv": "0f52ad21d71fe4d1b873c897d60d2aa90374480d2b2c731b2fa3a8e81c2c70bc",
        "summary.json": "8b572d998c42882ba5a35171bdca72f7e25b65d6ca2434083b071eda69d2e87f",
        "trajectory.csv": "418db3f49ba99e895d1b9766da4fd0c0b8a26afbd548f9de78908dfa2c0f541c",
    },
    "phi": {
        "clusters.json": "412eb93889ff2f2c9cb04dbc21c837d27678814338ba5790f5f7d64ae0b12487",
        "summary.json": "ec6cba413436962ecaaf4aaa30560145652e18741944f5645dc79a4d9c076f62",
        "trajectory.csv": "f4ea65f164d312f64693abbd572a203a3ca89a634314c480c698646ca4c1ba28",
    },
    "tetrahedron-merge": {
        "summary.json": "ec4693208e95df3e4b5c7403dfaacd9ff86ddcb6c4c83a366f12c38a0baad585",
        "trajectory.csv": "583995fc084f7d65e3bd0d99493571be84d4551197dca69921562d07be7d26fa",
    },
    "truth": {
        "clusters.json": "af29ce0b173cbc2c692ad08cfbcc5017ee73f704a5a709a5b0b3979fe25d6fa3",
        "energies.csv": "f042207c97c7c880fcc7177f1e48a14ed588b82449f17723ce0bbad6b654b50e",
        "summary.json": "7210566f3727184a02da91bedb2877b8710d6ba41a65b21d6d87e24a24421b40",
        "trajectory.csv": "b68c6de9db369345327527ad452fec5a11a38f9428777e9290ca0bf476113c98",
    },
    "two-r-csv": {
        "table.csv": "18210521ba7726b0528fd5240804f552b3077eff7d8a3abe1d22041389d7b3c2",
    },
    "two-r-json": {
        "table.json": "2415b4b82c49a917ac99fd00e322c44fad5455b149079b596cc15d4795918aba",
    },
}


def in_matrix_dir(tmp_path, monkeypatch):
    """Work in tmp_path, where the configs' ``{"file": "w.csv"}`` matrix is."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "w.csv").write_text(MATRIX_CSV)


def _digests(case, tmp_path, monkeypatch):
    in_matrix_dir(tmp_path, monkeypatch)
    out = tmp_path / "out"
    written = run(json.loads(json.dumps(CONFIGS[case])), out_dir=out)
    assert sorted(written) == sorted(str(p) for p in out.iterdir())
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}


@pytest.mark.parametrize("case", sorted(CONFIGS))
def test_artefact_bytes_match_golden_digests(case, tmp_path, monkeypatch):
    assert _digests(case, tmp_path, monkeypatch) == GOLDEN[case]
