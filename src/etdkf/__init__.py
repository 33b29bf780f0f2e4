"""Event-triggered distributed Kalman filtering over sensor networks, with
attack injection, k-NN divergence attack detection, and confidence/trust
based resilient estimation."""

from .attacks import (AttackPlan, AttackRecursion, SignalSpec, corrupt_channel,
                      corrupt_measurement, craft_non_triggering, craft_replay)
from .detection import DetectorConfig, KnnWindowBank, detect, estimate_kl
from .errors import ConfigurationError, NumericalError, ValidationError
from .filtering import (TriggerConfig, innovation, innovation_covariance,
                        kalman_gain, measurement_update, posterior_covariance,
                        prior_covariance, should_transmit, update_predictive)
from .graphs import (Graph, connected_components, find_minimal_potential_sets,
                     is_vertex_cut, laplacian, neighbors)
from .models import (NoiseSource, ProcessModel, SensorModel,
                     is_collectively_observable, measure, observability_rank,
                     step_process)
from .resilience import (BeliefState, BoundMonitor, ResilientConfig,
                         weighted_neighbor_estimate)
from .scenario import ScenarioConfig, get_preset, list_presets
from .simulate import (MetricsReport, SimTrace, compute_metrics, export_csv,
                       load_trace_csv, run_scenario, write_run_dir)

__version__ = "0.1.0"
