"""``repro.workloads`` — one registry for every runnable workload.

Importing this package populates both registries:

- the **workload registry** (:mod:`.registry`) with the micro/fuzz
  workloads (:mod:`.micro`) and the application-shaped macro-workloads
  (:mod:`.ml_training`, :mod:`.cfd_halo`);
- the **job-executor registry** (:mod:`.executors`) with the built-in
  job kinds, including the generic ``workload`` kind that runs any
  registered workload under the batch runner's content-addressed cache.
"""

from repro.workloads.registry import (
    Param,
    Workload,
    WorkloadResult,
    WORKLOADS,
    default_digest,
    get,
    names,
    register,
    run,
)
from repro.workloads import micro as _micro  # noqa: F401  (registers)
from repro.workloads import ml_training as _ml  # noqa: F401  (registers)
from repro.workloads import cfd_halo as _cfd  # noqa: F401  (registers)
from repro.workloads import executors  # noqa: F401  (registers job kinds)

__all__ = [
    "Param",
    "Workload",
    "WorkloadResult",
    "WORKLOADS",
    "default_digest",
    "executors",
    "get",
    "names",
    "register",
    "run",
]
