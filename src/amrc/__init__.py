"""Error-bounded lossy compression of 2D/3D gridded data by adaptive coarsening
of a Morton-indexed refinement tree."""

from .codec import (
    ONE_FOR_ALL,
    ONE_FOR_ONE,
    CoarsenResult,
    CompressedVariable,
    CompressionConfig,
    CompressStats,
    Packing,
    coarsen_forest,
    compress,
    compress_many,
    decompress,
    packed_bound,
    split_axis,
    stack_axis,
)
from .container import ArtifactHeader, read_artifact, write_artifact
from .criteria import ABSOLUTE, RELATIVE, Criterion, ErrorDomain, ErrorSpec
from .errors import (
    AmrcError,
    ConfigError,
    CorruptArtifactError,
    DataError,
    ShapeError,
    UnsupportedFeatureError,
)
from .mesh import (
    ForestMesh,
    GridShape,
    build_initial_mesh,
    complete_family_starts,
    deserialize_refinement,
    expand_to_uniform,
    map_data,
    serialize_refinement,
)
from .morton import MortonIndex, family_of, morton_decode, morton_encode, parent

__version__ = "0.1.0"

__all__ = [
    "ABSOLUTE",
    "RELATIVE",
    "ONE_FOR_ONE",
    "ONE_FOR_ALL",
    "AmrcError",
    "ArtifactHeader",
    "CoarsenResult",
    "CompressStats",
    "CompressedVariable",
    "CompressionConfig",
    "ConfigError",
    "CorruptArtifactError",
    "Criterion",
    "DataError",
    "ErrorDomain",
    "ErrorSpec",
    "ForestMesh",
    "GridShape",
    "MortonIndex",
    "Packing",
    "ShapeError",
    "UnsupportedFeatureError",
    "build_initial_mesh",
    "coarsen_forest",
    "complete_family_starts",
    "compress",
    "compress_many",
    "decompress",
    "deserialize_refinement",
    "expand_to_uniform",
    "family_of",
    "map_data",
    "morton_decode",
    "morton_encode",
    "packed_bound",
    "parent",
    "read_artifact",
    "serialize_refinement",
    "split_axis",
    "stack_axis",
    "write_artifact",
]
