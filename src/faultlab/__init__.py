"""faultlab: fault detection, fault injection, and event-misclassification
analysis for environmental sensor time series."""

from .errors import ConfigError, DataError, FaultLabError, NumericError
from .series import (EventWindow, GroundTruthLabels, Modality, PrecipRecord,
                     Series, validate_events)
from .preprocess import smooth_pairs
from .events import (event_ranges, event_sample_indices, events_from_precipitation,
                     first_half_hour_indices, per_event_indices)
from .detect import (DetectionResult, LlseModel, NeighborFit, NoiseModel,
                     ShortParams, fit_llse_model, llse_detect, llse_fit,
                     load_model, nearest_rank_percentile, noise_detect,
                     noise_train, save_model, short_detect)
from .inject import (InjectionPlan, inject_noise, inject_short, load_labels,
                     merge_labels, save_labels)
from .metrics import (EvalReport, PerEventStat, assemble_report, load_report,
                      save_report)
from .synth import (BoxTempProfile, DeploymentSpec, ScheduledEvent,
                    SoilMoistureProfile, gen_box_temperature, gen_deployment,
                    gen_soil_moisture, make_event_schedule)
from .io import (IngestReport, ingest_csv, read_detection_csv, read_events_csv,
                 read_precip_csv, write_detection_csv, write_events_csv,
                 write_series_csv)

__version__ = "0.1.0"
