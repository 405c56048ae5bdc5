import json
from pathlib import Path

import jsonschema
import pytest
from hypothesis import settings
from referencing import Registry, Resource

# the same examples on every run, and no example database written into the checkout
settings.register_profile("kobalab", derandomize=True, database=None, deadline=None,
                          max_examples=40)
settings.load_profile("kobalab")

SCHEMAS = Path(__file__).resolve().parents[1] / "schemas" / "v1"


@pytest.fixture(scope="session")
def schemas() -> dict:
    """The schemas/v1 documents by file name."""
    return {path.name: json.loads(path.read_text()) for path in sorted(SCHEMAS.glob("*.json"))}


@pytest.fixture(scope="session")
def validate_schema(schemas):
    """validate_schema("domain.json", data) raises on a descriptor that the
    schema rejects; cross-file $refs resolve through one registry."""
    registry = Registry().with_resources(
        (doc["$id"], Resource.from_contents(doc)) for doc in schemas.values())

    def validate(name: str, data) -> None:
        jsonschema.Draft7Validator(schemas[name], registry=registry).validate(data)

    return validate
