"""Power-grid islanding toolkit.

Partitions a transmission grid into self-sufficient microgrids by
simulating Kuramoto oscillator layers whose couplings come from branch
susceptances and whose natural frequencies come from bus injections.
Two growth algorithms are provided: a centralized one driven by
internode synchronization times, and a decentralized multi-agent one
driven by local frequency estimation.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .centralized import (AttachStep, CentralizedResult,
                          centralized_partition, check_initial_islands)
from .decentralized import (Decision, DecentralizedResult, IslandRegistry,
                            NodeAgent, agent_decide, estimate_island_power,
                            run_decentralized, staleness_check)
from .errors import (ConfigError, DegenerateBranch, DegenerateEstimate,
                     EmptyLayer, GridError, GridIslanderError,
                     InitialIslandsOverlap, MissingSection, NoGenerator,
                     NotConverged, NotFound, NumericalDivergence,
                     ParseError, SchemaError, SingularSystem, Stalled,
                     Unreachable, UndefinedSize)
from .kuramoto import (CyberLayer, EnsembleResult, SyncTimeTable,
                       build_layer, derivative, ensemble_integrate,
                       ensemble_run, ensemble_sync_times, integrate,
                       order_parameter, order_parameter_series,
                       sample_initial_conditions, sync_frequency,
                       sync_times)
from .matpower import RawCase, build_network, load_case, parse_case
from .metrics import (IslandMetrics, MetricsReport, compute_metrics,
                      j1_from_imbalances, metric_j1, metric_j2, metric_j3,
                      metric_j4, metrics_to_dict)
from .network import (Branch, Bus, Island, Partition, PowerNetwork,
                      ValidityReport, apply_fault, complete_island,
                      compute_cut_set, coupling_susceptance,
                      island_imbalance, make_partition, net_injection,
                      shortest_path, validate_partition)
from .powerflow import (PowerFlowSolution, ac_power_flow, build_ybus,
                        dc_power_flow, default_slack)
from .scenario import (ScenarioConfig, load_scenario, scenario_from_dict,
                       scenario_to_dict, with_overrides)
from .serialize import (network_from_dict, network_to_dict,
                        partition_from_dict, partition_to_dict, save_json,
                        sync_table_from_dict, sync_table_to_dict)
