"""The command-line interface."""

import io

from repro.cli import main


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_demo():
    code, output = run_cli("demo", "--vnfs", "1", "--seed", "cli-test")
    assert code == 0
    assert "Figure 1 workflow complete" in output
    assert "vnf-1" in output
    assert "total simulated" in output


def test_attest_clean_host():
    code, output = run_cli("attest", "--seed", "cli-attest")
    assert code == 0
    assert "TRUSTED" in output


def test_attest_tampered_host_nonzero_exit():
    code, output = run_cli("attest", "--seed", "cli-tamper",
                           "--tamper", "/usr/bin/dockerd")
    assert code == 1
    assert "REJECTED" in output
    assert "hash mismatch" in output


def test_attest_hidden_tamper_with_tpm():
    code, output = run_cli("attest", "--seed", "cli-hide", "--tpm",
                           "--tamper", "/usr/bin/dockerd", "--hide")
    assert code == 1
    assert "rewritten" in output


def test_attest_hidden_tamper_without_tpm_passes():
    # The paper's §4 gap, visible from the CLI.
    code, output = run_cli("attest", "--seed", "cli-hide2",
                           "--tamper", "/usr/bin/dockerd", "--hide")
    assert code == 0
    assert "TRUSTED" in output


def test_enroll_standard_and_csr():
    code, output = run_cli("enroll", "--vnfs", "1", "--seed", "cli-enroll")
    assert code == 0
    assert "VM-generated keys" in output
    code, output = run_cli("enroll", "--vnfs", "1", "--csr",
                           "--seed", "cli-enroll-csr")
    assert code == 0
    assert "CSR (in-enclave keys)" in output


def test_enroll_multihost():
    code, output = run_cli("enroll", "--vnfs", "2", "--hosts", "2",
                           "--seed", "cli-mh")
    assert code == 0
    assert "container-host-2" in output


def test_metrics_dumps_scrape_text():
    code, output = run_cli("metrics", "--vnfs", "1", "--seed", "cli-metrics")
    assert code == 0
    assert "# TYPE vnf_sgx_workflow_step_seconds histogram" in output
    assert 'vnf_sgx_credentials_issued_total{variant="delivery"} 1' in output
    assert "vnf_sgx_enrolled_vnfs 1" in output


def test_metrics_traces_mode_emits_json():
    import json

    code, output = run_cli("metrics", "--vnfs", "1", "--seed", "cli-traces",
                           "--traces")
    assert code == 0
    traces = json.loads(output)
    assert traces[0]["name"] == "figure1-workflow"
    assert traces[0]["children"][0]["name"] == "enrollment"


def test_experiments_listing():
    code, output = run_cli("experiments")
    assert code == 0
    for exp_id in ("E1", "E4", "E7", "E8", "E11"):
        assert exp_id in output
