"""Tests for the key-findings verifier and the new CLI subcommands."""

import pytest

from repro.core.findings import Finding, render_findings, verify_findings


@pytest.fixture(scope="module")
def findings():
    return verify_findings()


@pytest.mark.slow
class TestFindings:
    def test_all_hold(self, findings):
        failing = [f.claim for f in findings if not f.holds]
        assert not failing, failing

    def test_covers_all_evaluation_sections(self, findings):
        assert {f.section for f in findings} == {"4.1", "4.2", "4.3", "4.4"}

    def test_count(self, findings):
        assert len(findings) >= 9

    def test_evidence_nonempty(self, findings):
        for f in findings:
            assert f.evidence

    def test_render(self, findings):
        text = render_findings(findings)
        assert "PASS" in text
        assert "paper claim" in text

    def test_render_failures_marked(self):
        text = render_findings(
            [Finding("4.1", "the moon is cheese", False, "telescope")]
        )
        assert "FAIL" in text


def test_ingestion_finding_loads_kgs_at_the_runner_scale(monkeypatch):
    from repro.core.runner import Runner
    from repro.datasets import registry

    loads = []
    load_dataset = registry.load_dataset

    def spy(name, *args, **kwargs):
        loads.append((name, kwargs.get("scale", 1.0)))
        return load_dataset(name, *args, **kwargs)

    monkeypatch.setattr(registry, "load_dataset", spy)
    verify_findings(runner=Runner(scale=0.125))
    assert ("kgs", 0.125) in loads
    assert ("kgs", 1.0) not in loads


class TestCliSubcommands:
    def test_graph500(self, capsys):
        from repro.cli import main

        assert main(["graph500", "--graph-scale", "8", "--roots", "4"]) == 0
        out = capsys.readouterr().out
        assert "harmonic mean TEPS" in out
        assert "passed" in out

    def test_ingest(self, capsys):
        from repro.cli import main

        assert main(["table", "6"]) == 0
        assert "Neo4j" in capsys.readouterr().out
