"""SARIF 2.1.0 emitter: structural shape, deterministic serialisation,
and validation against an embedded subset of the official SARIF 2.1.0
JSON schema (the full oasis-tcs schema is ~200 KB and needs a network
fetch; the subset pins every constraint the emitter relies on)."""

import json

import pytest

from repro.lint.findings import Finding, Severity
from repro.lint.sarif import (
    SARIF_SCHEMA_URI,
    SARIF_VERSION,
    TOOL_NAME,
    render_sarif,
    sarif_log,
)

RULE_METADATA = [
    ("RL101", "package imports must follow the layering DAG", Severity.ERROR),
    ("RL304", "no unstable array sorts in decision paths", Severity.WARNING),
]


def finding(path="src/repro/core/x.py", line=3, col=5, rule="RL101", severity=Severity.ERROR):
    return Finding(
        path=path,
        line=line,
        col=col,
        rule_id=rule,
        severity=severity,
        message=f"finding from {rule}",
    )


#: Subset of the SARIF 2.1.0 schema: the properties reprolint emits, with
#: the spec's required fields and enums for them.  Extra properties stay
#: legal, as in the full schema.
SARIF_SUBSET_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["version", "runs"],
    "properties": {
        "$schema": {"type": "string", "format": "uri"},
        "version": {"enum": ["2.1.0"]},
        "runs": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["tool"],
                "properties": {
                    "tool": {
                        "type": "object",
                        "required": ["driver"],
                        "properties": {
                            "driver": {
                                "type": "object",
                                "required": ["name"],
                                "properties": {
                                    "name": {"type": "string"},
                                    "version": {"type": "string"},
                                    "informationUri": {"type": "string", "format": "uri"},
                                    "rules": {
                                        "type": "array",
                                        "items": {
                                            "type": "object",
                                            "required": ["id"],
                                            "properties": {
                                                "id": {"type": "string"},
                                                "shortDescription": {
                                                    "type": "object",
                                                    "required": ["text"],
                                                    "properties": {"text": {"type": "string"}},
                                                },
                                                "defaultConfiguration": {
                                                    "type": "object",
                                                    "properties": {
                                                        "level": {
                                                            "enum": [
                                                                "none",
                                                                "note",
                                                                "warning",
                                                                "error",
                                                            ]
                                                        }
                                                    },
                                                },
                                            },
                                        },
                                    },
                                },
                            }
                        },
                    },
                    "columnKind": {
                        "enum": ["utf16CodeUnits", "unicodeCodePoints"]
                    },
                    "results": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["message"],
                            "properties": {
                                "ruleId": {"type": "string"},
                                "ruleIndex": {"type": "integer", "minimum": 0},
                                "level": {
                                    "enum": ["none", "note", "warning", "error"]
                                },
                                "message": {
                                    "type": "object",
                                    "required": ["text"],
                                    "properties": {"text": {"type": "string"}},
                                },
                                "locations": {
                                    "type": "array",
                                    "items": {
                                        "type": "object",
                                        "properties": {
                                            "physicalLocation": {
                                                "type": "object",
                                                "properties": {
                                                    "artifactLocation": {
                                                        "type": "object",
                                                        "properties": {
                                                            "uri": {"type": "string"}
                                                        },
                                                    },
                                                    "region": {
                                                        "type": "object",
                                                        "properties": {
                                                            "startLine": {
                                                                "type": "integer",
                                                                "minimum": 1,
                                                            },
                                                            "startColumn": {
                                                                "type": "integer",
                                                                "minimum": 1,
                                                            },
                                                        },
                                                    },
                                                },
                                            }
                                        },
                                    },
                                },
                            },
                        },
                    },
                },
            },
        },
    },
}


class TestStructure:
    def test_log_shape(self):
        log = sarif_log([finding()], RULE_METADATA, tool_version="3")
        assert log["$schema"] == SARIF_SCHEMA_URI
        assert log["version"] == SARIF_VERSION
        (run,) = log["runs"]
        driver = run["tool"]["driver"]
        assert driver["name"] == TOOL_NAME
        assert driver["version"] == "3"
        assert [rule["id"] for rule in driver["rules"]] == ["RL101", "RL304"]

    def test_result_fields(self):
        log = sarif_log([finding(line=7, col=2)], RULE_METADATA)
        (result,) = log["runs"][0]["results"]
        assert result["ruleId"] == "RL101"
        assert result["ruleIndex"] == 0
        assert result["level"] == "error"
        assert result["message"]["text"] == "finding from RL101"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"].endswith("src/repro/core/x.py")
        assert location["region"] == {"startLine": 7, "startColumn": 2}

    def test_severity_maps_to_level(self):
        log = sarif_log(
            [finding(rule="RL304", severity=Severity.WARNING)], RULE_METADATA
        )
        (result,) = log["runs"][0]["results"]
        assert result["level"] == "warning"
        assert result["ruleIndex"] == 1

    def test_unknown_rule_omits_rule_index(self):
        log = sarif_log([finding(rule="RL999")], RULE_METADATA)
        (result,) = log["runs"][0]["results"]
        assert "ruleIndex" not in result

    def test_empty_findings_give_empty_results(self):
        log = sarif_log([], RULE_METADATA)
        assert log["runs"][0]["results"] == []


class TestDeterminism:
    def test_results_sorted_regardless_of_input_order(self):
        findings = [
            finding(path="src/repro/core/b.py"),
            finding(path="src/repro/core/a.py"),
        ]
        forward = render_sarif(findings, RULE_METADATA)
        backward = render_sarif(list(reversed(findings)), RULE_METADATA)
        assert forward == backward

    def test_render_is_valid_json_with_sorted_keys(self):
        text = render_sarif([finding()], RULE_METADATA)
        parsed = json.loads(text)
        assert json.dumps(parsed, indent=2, sort_keys=True) == text


class TestSchemaValidation:
    def test_log_validates_against_sarif_2_1_0_subset(self):
        jsonschema = pytest.importorskip("jsonschema")
        log = sarif_log(
            [
                finding(),
                finding(rule="RL304", severity=Severity.WARNING, line=9),
                finding(rule="RL999"),
            ],
            RULE_METADATA,
            tool_version="1.2",
        )
        jsonschema.validate(instance=log, schema=SARIF_SUBSET_SCHEMA)

    def test_empty_log_validates(self):
        jsonschema = pytest.importorskip("jsonschema")
        jsonschema.validate(
            instance=sarif_log([], RULE_METADATA), schema=SARIF_SUBSET_SCHEMA
        )
