"""The document layer: one CSV writer, one CSV reader and one strict JSON reader."""

import json

import numpy as np
import pytest

from crowdharvest import geometry
from crowdharvest import scheduling as sched
from crowdharvest._documents import read_csv, read_text, write_csv
from crowdharvest.errors import IngestionError, InvalidParameterError

PROBLEM = sched.ScheduleProblem(
    slot_count=2,
    slot_duration_s=0.5,
    source_arrivals_j=(1.25, 0.0),
    relay_arrivals_j=(0.5, 2.0),
    source_gains=(1e-3, 2e-3),
    relay_gains=(1e-3, 1e-3),
    noise_power_w=1e-9,
    relay_capacity_j=3.0,
    rx_energy_cost_j=0.125,
    delay_constrained=True,
)

POLICY_MDP = sched.BatteryMdp(
    sched.MarkovArrivals((0.0, 1.0), ((0.7, 0.3), (0.4, 0.6))),
    battery_buckets=3,
    bucket_j=1.0,
    spend_levels_j=(0.0, 1.0, 2.0),
    snr_per_joule=2.0,
)

# PROBLEM.to_json() as written by the hand-built serialiser that the document
# layer replaced, and mdp_policy_iteration(POLICY_MDP).to_json(), whose "mdp"
# is the BatteryMdp's own fields.
PROBLEM_JSON = """{
  "delay_constrained": true,
  "initial_relay_j": 0.0,
  "initial_source_j": 0.0,
  "noise_power_w": 1e-09,
  "relay_arrivals_j": [
    0.5,
    2.0
  ],
  "relay_capacity_j": 3.0,
  "relay_gains": [
    0.001,
    0.001
  ],
  "rx_energy_cost_j": 0.125,
  "slot_count": 2,
  "slot_duration_s": 0.5,
  "source_arrivals_j": [
    1.25,
    0.0
  ],
  "source_capacity_j": null,
  "source_gains": [
    0.001,
    0.002
  ]
}
"""

POLICY_JSON = """{
  "actions": [
    [
      0,
      0
    ],
    [
      1,
      1
    ],
    [
      1,
      1
    ]
  ],
  "gain": 0.6792696431662097,
  "mdp": {
    "arrivals": {
      "states_j": [
        0.0,
        1.0
      ],
      "transitions": [
        [
          0.7,
          0.3
        ],
        [
          0.4,
          0.6
        ]
      ]
    },
    "battery_buckets": 3,
    "bucket_j": 1.0,
    "snr_per_joule": 2.0,
    "spend_levels_j": [
      0.0,
      1.0,
      2.0
    ]
  }
}
"""


def test_problem_document_loads_equal_and_writes_the_same_bytes():
    loaded = sched.ScheduleProblem.from_json(PROBLEM_JSON)
    assert loaded == PROBLEM
    assert PROBLEM.to_json() == PROBLEM_JSON


def test_policy_document_loads_equal_and_writes_the_same_bytes():
    policy = sched.mdp_policy_iteration(POLICY_MDP)
    loaded = sched.Policy.from_json(POLICY_JSON)
    assert loaded.mdp == POLICY_MDP
    assert np.array_equal(loaded.actions, policy.actions)
    assert loaded.actions.tolist() == [[0, 0], [1, 1], [1, 1]]
    assert loaded.gain == policy.gain == 0.6792696431662097
    assert policy.to_json() == POLICY_JSON


DEPLOYMENT_JSON = geometry.deployment_to_json(
    geometry.sample_ppp(20.0, geometry.Region(500.0, 400.0), 3)
)

READERS = {
    "problem": (sched.ScheduleProblem.from_json, PROBLEM_JSON),
    "policy": (sched.Policy.from_json, POLICY_JSON),
    "deployment": (geometry.deployment_from_json, DEPLOYMENT_JSON),
}

# (reader, defect) -> (edit of the parsed document, key the error must name)
DEFECTS = {
    ("problem", "missing key"): (lambda d: d.pop("slot_count"), "slot_count"),
    ("problem", "unknown key"): (lambda d: d.update(slots=2), "slots"),
    ("problem", "fractional int"): (lambda d: d.update(slot_count=2.7), "slot_count"),
    ("problem", "null float"): (lambda d: d.update(slot_duration_s=None), "slot_duration_s"),
    ("policy", "missing key"): (lambda d: d.pop("gain"), "gain"),
    ("policy", "unknown key"): (lambda d: d.update(bias_j=[0.0]), "bias_j"),
    ("policy", "fractional int"): (
        lambda d: d["mdp"].update(battery_buckets=2.7), "battery_buckets"
    ),
    ("policy", "null float"): (lambda d: d["mdp"].update(bucket_j=None), "bucket_j"),
    ("deployment", "missing key"): (lambda d: d.pop("points"), "points"),
    ("deployment", "unknown key"): (lambda d: d.update(count=3), "count"),
    ("deployment", "fractional int"): (lambda d: d.update(seed=2.7), "seed"),
    ("deployment", "null float"): (lambda d: d.update(density_per_km2=None), "density_per_km2"),
}


@pytest.mark.parametrize(
    "defect", ["missing key", "unknown key", "fractional int", "null float", "not JSON"]
)
@pytest.mark.parametrize("reader", sorted(READERS))
def test_strict_json_readers_reject_bad_documents(reader, defect):
    from_json, text = READERS[reader]
    if defect == "not JSON":
        text, key = text[: len(text) // 2], "JSON"
    else:
        edit, key = DEFECTS[reader, defect]
        doc = json.loads(text)
        edit(doc)
        text = json.dumps(doc)
    with pytest.raises(InvalidParameterError, match=key):
        from_json(text)


@pytest.mark.parametrize("reader,edit,path", [
    ("policy", lambda d: d["mdp"].update(bucket_j=None), "mdp.bucket_j"),
    ("policy", lambda d: d["mdp"].update(spend_levels_j=[0.0, "x"]), "mdp.spend_levels_j[1]"),
    ("policy", lambda d: d["mdp"]["arrivals"].update(states_j=[0.0, "x"]),
     "mdp.arrivals.states_j[1]"),
    ("deployment", lambda d: d["region"].update(width_m=None), "region.width_m"),
])
def test_errors_name_the_full_key_path(reader, edit, path):
    from_json, text = READERS[reader]
    doc = json.loads(text)
    edit(doc)
    with pytest.raises(InvalidParameterError) as info:
        from_json(json.dumps(doc))
    assert str(info.value).startswith(f"{path}: ")


def test_policy_arrival_chain_keys_are_strict():
    doc = json.loads(POLICY_JSON)
    doc["mdp"]["arrival_states_j"] = [0.0, 1.0]
    with pytest.raises(InvalidParameterError, match="arrival_states_j"):
        sched.Policy.from_json(json.dumps(doc))
    doc = json.loads(POLICY_JSON)
    doc["mdp"]["arrivals"].pop("transitions")
    with pytest.raises(InvalidParameterError, match="transitions"):
        sched.Policy.from_json(json.dumps(doc))


@pytest.mark.parametrize("edit,message", [
    (lambda chain: chain.update(transitions=[[0.8, 0.2], None]),
     "mdp.arrivals.transitions[1]: expected a list, got None"),
    (lambda chain: chain.update(kind="markov"), "mdp.arrivals: unknown key(s) ['kind']"),
    (lambda chain: chain.pop("states_j"), "mdp.arrivals: missing key(s) ['states_j']"),
    (lambda chain: chain.update(transitions=[[0.8, 0.3], [0.4, 0.6]]),
     "mdp.arrivals: transition matrix rows must sum to 1"),
], ids=["null-row", "unknown-arrival-key", "missing-arrival-key", "bad-chain"])
def test_policy_errors_name_the_arrival_keys_of_the_document(edit, message):
    doc = json.loads(POLICY_JSON)
    edit(doc["mdp"]["arrivals"])
    with pytest.raises(InvalidParameterError) as info:
        sched.Policy.from_json(json.dumps(doc))
    assert str(info.value) == message


def test_csv_writer_and_reader_round_trip():
    text = write_csv(["a", "b"], [("1", "x"), (2, "y,z")])
    assert text == 'a,b\n1,x\n2,"y,z"\n'
    assert read_csv(text, ["a", "b"], lambda row: (int(row[0]), row[1])) == [(1, "x"), (2, "y,z")]


def test_csv_reader_skips_blank_rows_and_collects_every_malformed_row():
    text = "a,b\n1,2\n\n3,x\n , \n4\n5,6\n"
    with pytest.raises(IngestionError) as err:
        read_csv(text, ["a", "b"], lambda row: (float(row[0]), float(row[1])))
    assert err.value.bad_rows == [(4, "3,x"), (6, "4")]
    assert read_csv("a, b \n\n1,2\n", ["a", "b"], lambda row: row) == [["1", "2"]]
    with pytest.raises(IngestionError, match="'a,b'"):
        read_csv("a,c\n1,2\n", ["a", "b"], lambda row: row)
    with pytest.raises(IngestionError):
        read_csv("", ["a", "b"], lambda row: row)


def test_unreadable_input_raises_ingestion_error(tmp_path):
    with pytest.raises(IngestionError, match="cannot read"):
        read_text(tmp_path / "missing.csv")
    with pytest.raises(IngestionError, match="cannot read"):
        read_text(tmp_path)  # a directory
