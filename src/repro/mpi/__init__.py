"""Simulated MPI (system S5): communicators, p2p, collectives, launcher."""

from .collectives import REDUCE_OPS, CollectiveOps, resolve_op
from .communicator import BoundComm, Communicator
from .datatypes import SCALAR_NBYTES, copy_payload, payload_nbytes
from .endpoint import Endpoint
from .errors import CommunicatorError, MpiError, RankFailure
from .message import ANY_SOURCE, ANY_TAG, Envelope, Status
from .request import Request
from .world import MpiJob, MpiWorld, ProcContext, launch_job, run_mpi_job

__all__ = [
    "ANY_SOURCE", "ANY_TAG", "BoundComm", "CollectiveOps", "Communicator",
    "CommunicatorError", "Endpoint", "Envelope", "MpiError", "MpiJob",
    "MpiWorld", "ProcContext", "RankFailure", "REDUCE_OPS", "Request",
    "SCALAR_NBYTES", "Status", "copy_payload", "launch_job",
    "payload_nbytes", "resolve_op", "run_mpi_job",
]
