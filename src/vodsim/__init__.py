"""Discrete-event simulator for fully distributed peer-to-peer
video-on-demand: striped replica allocation over capacity-constrained boxes,
centralized max-flow and distributed playback-cache-first schedulers, and
adversarial request/churn workloads."""

from .config import SystemConfig, validate_config, load_config, parse_config
from .model import (StripeId, SimEvent, SimState, ConnectionAssignment,
                    apply_event)
from .allocation import AllocationMap, allocate_regular, allocate_purely_random
from .maxflow import (FlowNetwork, Infeasible, build_request_graph, max_flow,
                      schedule_maxflow, check_expander)
from .scheduler import (ConnectionRequest, GrantDecision, grant_connection,
                        DistributedScheduler)
from .adversary import (AdversarySpec, PopularityTrace, make_adversary,
                        generate_stressless, validate_sequence)
from .engine import Metrics, run, saturation_probe
from .bounds import BoundReport, min_replication_k, feasibility_report

__version__ = "0.1.0"
