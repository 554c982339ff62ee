"""An event is a shape and a tuple of values, and reads as it did as a dict.

`render` writes one `%` format per shape. The reference here is the generic
writer every event used before shapes: `block= tx= KIND emitter=` and then
`key=value` for each field, each value through `events.hexed`. Every event of
`tests.corpus.event_logs` must render as that writer does, and its `fields`
and `payload` views must be the mappings its keys and values make.
"""

import pytest

from nftaa_sim import Event, EventKind
from nftaa_sim.events import SHAPES, hexed
from tests.corpus import event_logs


@pytest.fixture(scope="module")
def events():
    return [event for log in event_logs() for event in log]


def reference_line(kind: EventKind, emitter: bytes, fields: dict, block: int,
                   tx_id: int) -> str:
    parts = [f"block={block}", f"tx={tx_id}", kind.value, f"emitter={emitter.hex()}"]
    for key, value in fields.items():
        parts.append(f"{key}={hexed(value)}")
    return " ".join(parts)


def test_every_event_renders_as_the_generic_writer(events):
    for event in events:
        fields = dict(zip(event.shape.keys, event.values))
        expected = reference_line(event.kind, event.emitter, fields, event.block, event.tx_id)
        assert event.render() == expected


def test_fields_and_payload_are_the_keys_zipped_with_the_values(events):
    for event in events:
        keys = event.shape.keys
        assert len(keys) == len(event.values), event
        assert event.kind is event.shape.kind
        assert event.fields == dict(zip(keys, event.values))
        assert event.payload == {key: hexed(value) for key, value in zip(keys, event.values)}


def test_every_kind_has_a_shape_and_every_shape_is_emitted(events):
    assert {shape.kind for shape in SHAPES} == set(EventKind)
    assert len({(shape.kind, shape.keys) for shape in SHAPES}) == len(SHAPES) == 9
    emitted = {id(event.shape) for event in events}
    assert [shape.format for shape in SHAPES if id(shape) not in emitted] == []


def test_render_writes_none_and_a_percent_sign_as_the_generic_writer():
    """No event the corpus emits holds `None` or a `%`; the writer still takes them."""
    shape = SHAPES[0]
    values = ("100%", b"\x01\x02", None)
    line = Event(shape, b"\xff", values, 3, 4).render()
    assert line == reference_line(shape.kind, b"\xff", dict(zip(shape.keys, values)), 3, 4)
    assert line.endswith("token_id=100% account=0102 creator=none")
