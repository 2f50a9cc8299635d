"""Pinned sha256 of every report file of the shipped scenarios.

Criterion 08 compares two runs of the same code; these digests also catch a
change that alters results between versions. A change that means to alter
them must say why and move the digests itself.
"""

import hashlib

import pytest

from rasesim.experiment import load_config, run_experiment, write_report

GOLDEN = {
    "exp1": {
        "cpu.csv": "4ac49db4954f39c337c2e5d5c91d9e393e8b7ecfeacc47afafe46ead681ac6a1",
        "latency.csv": "f9666fe0f646547d0fdd6a8338d5818976cb1d24a37dbd2c3534d02c1d4f5041",
        "outcomes.csv": "8dfd4631966ef8c23a15ad46dbba29a7ef46581d36ad2b842048c83692066c04",
        "report.json": "8e7f968bba5568576b3a3cf3bd8898388c51e59994ff94de4b45b234db2bde81",
    },
    "exp2": {
        "cpu.csv": "db03348c8ec35c96f893fe94f5fcc1dfe22a9d76770ffe390fb3788712ec8ba2",
        "latency.csv": "d10ea6bcac24e7a052e8c99529f61bd9b1ee57c40bcd2cef6cc5fdb41bd74da0",
        "outcomes.csv": "78eab726f0473f44f4c47aba6427a20555df62528efc9d80abd975f38d4ceba6",
        "report.json": "27fca94a3de3478dc89c4aa02f470c773cdb89798b8a64296870acca08889a8d",
    },
    "exp3": {
        "cpu.csv": "e52fa6b0059115a35d5a3f87ab7594517bd9bf9688d00e0f9589828f35d60b40",
        "latency.csv": "12ad8adf781542add22fbc9084ef3f89cf83cba45c09849bb4bb35fe2757e820",
        "outcomes.csv": "fe6d069ba722d989facc965403e1986dded060b5a747db01bbd1ff1ca5d95064",
        "report.json": "bff7ab57d5cd5dd71768966685c1b8fe1f829afa8a4e119c80ced4011e0934ca",
    },
    "exp4": {
        "cpu.csv": "53229e8e7821412c9329668ac9771273c9ecff453a0a0daf7820109cb1e39977",
        "latency.csv": "7bff67581b67cfe0bf25023f694e40c21af27d594000380a8dfcc57f782754f5",
        "outcomes.csv": "357a70bc64d1ade6798d5367e68c767cfb027167d0cf5040a607b7fc3d0874be",
        "report.json": "8a39a10bae6f1173f9169d1c554f48d3841cffecd95a650d0c398c2fef680ac0",
    },
    "exp5": {
        "cpu.csv": "520b52747fd74a4150b594470090954fdbbe68d808ae7e65a02aeb769e2bb306",
        "latency.csv": "48012911e60c977bff5a18468294a229309b85cd45be983cf10ae6e7c2827af6",
        "outcomes.csv": "8dfd4631966ef8c23a15ad46dbba29a7ef46581d36ad2b842048c83692066c04",
        "report.json": "d4c5989776cb1447b1fa9182357efab9261ab11eb50722696d153081c2368131",
    },
    "exp6": {
        "cpu.csv": "e24b48e599e22277c573e8a1db945866da6cad349a7d5f3028f8094f9a3e92fa",
        "latency.csv": "e0dd751db4c220aa9f7c021fda7db81ec02c4a88ee2483677f0db0449df49523",
        "outcomes.csv": "78eab726f0473f44f4c47aba6427a20555df62528efc9d80abd975f38d4ceba6",
        "report.json": "c411fe1dcd288da9bb226f3a483cf79b072d272ab03bd072b35e5f4cfc4755bb",
    },
    "exp7": {
        "cpu.csv": "23f9c107823dfb129c995e32dfd0d4cfc0f7aab3a7ac6c5bace9b3754e0afb87",
        "latency.csv": "bb22b7183098b5b40af4ec9b8adc37272f97a642a454907e92e2883bdc581d8f",
        "outcomes.csv": "fe6d069ba722d989facc965403e1986dded060b5a747db01bbd1ff1ca5d95064",
        "report.json": "7f91bef5ec104fe63c92eeb4f22d7bebf4c6ce007f1ffc1e425f50c9ad891291",
    },
    "exp8": {
        "cpu.csv": "5a7c324988f347683fce50d89e735afa9af5a22ecba8897f9fc4b740aff74568",
        "latency.csv": "027fc53dd760753ece83e713f3ca2e464a95d81f598bd503dd79440d9c23b396",
        "outcomes.csv": "e1cd8a07bdb5df994e2684a8dd8fde8736e5d5b20d3411226739b3b3100e127f",
        "report.json": "46d86a50d0e234e5790f259b96e633a25e94d724c789e59bf64fb6faaa4ca883",
    },
    "ga_small": {
        "cpu.csv": "a9b106598f0abdc95dc154025da6ccf724b455be5b5ad19a27f97649cee264c0",
        "latency.csv": "93c4c9a4f6016c5591a7129d93cfa7fa518376d81e887e5e0e653115396f31ca",
        "outcomes.csv": "20b58f9ea92585deea0ec0f4a8acd7c3858ba0619d394f6c31cec4bff8499b8a",
        "report.json": "0f55ec38ab5405f4870eb849bd932f52f97770055188faf146cbafb4688ae9f7",
        "trace.csv": "4008dc1adc4adcc1f7fa00cb75c917b25cc452b4c0680335d827a53fb0934814",
    },
}


@pytest.mark.parametrize("scenario", sorted(GOLDEN))
def test_report_files_match_pinned_digests(scenario_dir, tmp_path, scenario):
    report = run_experiment(load_config(scenario_dir / f"{scenario}.json"))
    paths = write_report(report, tmp_path, ("json", "csv"))
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in paths}
    assert digests == GOLDEN[scenario]
