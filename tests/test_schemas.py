import pytest

from kobalab import cli, coverings, domains, serialize


@pytest.mark.parametrize("name,registry", [("domain.json", domains._KINDS),
                                           ("base.json", domains._BASES),
                                           ("map.json", coverings._MAP_KINDS),
                                           ("family.json", serialize._FAMILIES),
                                           ("geodesic.json", serialize._GEODESICS)])
def test_schema_kinds_match_the_registries(schemas, name, registry):
    kinds = {branch["properties"]["kind"]["const"] for branch in schemas[name]["oneOf"]}
    assert kinds == set(registry)


@pytest.mark.parametrize("name,registry", [("domain.json", domains._KINDS),
                                           ("base.json", domains._BASES),
                                           ("family.json", serialize._FAMILIES),
                                           ("geodesic.json", serialize._GEODESICS),
                                           ("map.json", coverings._MAP_KINDS)])
def test_schema_fields_match_the_constructors(schemas, name, registry):
    # each branch names the constructor's parameters, and requires those
    # without a default
    for branch in schemas[name]["oneOf"]:
        codecs = domains._field_codecs(registry[branch["properties"]["kind"]["const"]])
        assert set(branch["properties"]) == {"kind"} | {c[0] for c in codecs}
        assert set(branch["required"]) == {"kind"} | {c[0] for c in codecs if c[3]}


def test_schema_rejects_a_malformed_descriptor(validate_schema):
    from jsonschema import ValidationError

    validate_schema("base.json", {"kind": "ball", "center": [0.0], "radius": 1.0})
    for name, data in [("base.json", {"kind": "ball", "center": [], "radius": 1.0}),
                       ("domain.json", {"kind": "annulus", "R": 0.5}),
                       ("map.json", {"kind": "monomial", "matrix": [[1.5]],
                                     "base": {"kind": "ball", "center": [0.0], "radius": 1.0}})]:
        with pytest.raises(ValidationError):
            validate_schema(name, data)


def test_audit_config_keys_match_the_schema(schemas):
    assert set(schemas["audit-config.json"]["properties"]) == cli.AUDIT_CONFIG_KEYS
