"""Edge-cloud collaborative lifelong learning for heterogeneous tabular data.

The cloud side keeps a versioned knowledge base of per-task models; a
lifelong job trains, evaluates, and deploys task models as immutable
snapshots; edge runtimes serve inference offline, detect unknown tasks,
and feed labeled data back to trigger update cycles. A benchmark harness
compares the lifelong pipeline against closed and incremental baselines.
"""

from .data import (
    Dataset,
    DatasetSchema,
    Sample,
    load_csv,
    parse_schema,
    schema_to_json,
    split_dataset,
    write_csv,
)
from .edge import EdgeRuntime, Prediction
from .errors import EdgeLearnError
from .job import (
    EvalPolicy,
    EvalReport,
    JobConfig,
    LifelongJob,
    Phase,
    TransferPolicy,
    TriggerPolicy,
    parse_job_config,
)
from .kb import (
    DeploySnapshot,
    KnowledgeBase,
    TaskRecord,
    deserialize_snapshot,
    serialize_snapshot,
)
from .learners import (
    EstimatorSpec,
    EvalMetrics,
    Learner,
    ModelArtifact,
    deserialize_model,
    evaluate,
    fit,
    predict,
    register_learner,
    serialize_model,
)
from .sim import SimConfig, Simulation, start_sim
from .tasks import (
    BucketingConfig,
    bucket_attributes,
    mine_tasks,
    sample_transfer,
    task_key,
    task_similarity,
)

__version__ = "0.1.0"
