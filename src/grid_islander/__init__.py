"""Power-grid islanding toolkit.

Partitions a transmission grid into self-sufficient microgrids by
simulating Kuramoto oscillator layers whose couplings come from branch
susceptances and whose natural frequencies come from bus injections.
Two growth algorithms are provided: a centralized one driven by
internode synchronization times, and a decentralized multi-agent one
driven by local frequency estimation.
"""

from __future__ import annotations

import os

# One BLAS thread unless the caller chose otherwise: a multi-threaded
# solve gives other bits than a single-threaded one, and artifacts must
# not depend on the machine's CPU count. These defaults reach OpenBLAS
# and OpenMP only if numpy is first imported below; a caller that
# imported numpy earlier keeps its own thread count.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

__version__ = "0.1.0"

from .centralized import AttachStep, CentralizedResult, centralized_partition
from .decentralized import (DecentralizedResult, agent_decide,
                            estimate_island_power, run_decentralized)
from .errors import (ConfigError, DegenerateBranch, DegenerateEstimate,
                     EmptyLayer, GridIslanderError, InitialIslandsOverlap,
                     MissingSection, NoGenerator, NotConverged, NotFound,
                     NumericalDivergence, ParseError, SchemaError,
                     SingularSystem, Stalled, UndefinedSize)
from .kuramoto import (CyberLayer, LockedState, SyncTimeTable, Trajectory,
                       build_layer, derivative, ensemble_integrate,
                       ensemble_sync_times, integrate, locked_state,
                       sample_initial_conditions, sync_frequency, sync_times)
from .matpower import RawCase, build_network, load_case, parse_case
from .metrics import (IslandMetrics, MetricsReport, compute_metrics,
                      j1_from_imbalances, metric_j1, metric_j2, metric_j3,
                      metric_j4, metrics_to_dict, pre_partition_flow)
from .network import (Branch, Bus, Island, IslandRegistry, Partition,
                      PowerNetwork, ValidityReport, apply_fault,
                      check_initial_islands, compute_cut_set,
                      coupling_susceptance, island_imbalance, make_partition,
                      net_injection, validate_partition)
from .powerflow import (Admittance, PowerFlowSolution, ac_power_flow,
                        build_ybus, dc_power_flow, default_slack)
from .scenario import ScenarioConfig, load_scenario, scenario_from_dict
from .serialize import (network_to_dict, partition_from_dict,
                        partition_to_dict, save_json, sync_table_from_dict,
                        sync_table_to_dict)
