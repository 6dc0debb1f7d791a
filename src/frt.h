// Umbrella header: the FRT public API in one include.
//
//   #include "frt.h"
//
// pulls in the trajectory model, the FrequencyRandomizer pipeline (the
// paper's contribution), the baselines, both attacks, and the evaluation
// metrics. Fine-grained headers remain available for selective inclusion.

#ifndef FRT_FRT_H_
#define FRT_FRT_H_

// Foundation
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/stopwatch.h"

// Data model
#include "geo/bbox.h"
#include "geo/grid.h"
#include "geo/point.h"
#include "geo/segment.h"
#include "traj/dataset.h"
#include "traj/io.h"
#include "traj/quantizer.h"
#include "traj/trajectory.h"

// Substrates
#include "index/segment_index.h"
#include "roadnet/graph.h"
#include "roadnet/map_matcher.h"
#include "roadnet/shortest_path.h"
#include "synth/road_gen.h"
#include "synth/workload.h"

// Differential privacy
#include "dp/accountant.h"
#include "dp/laplace.h"

// The paper's contribution
#include "core/anonymizer.h"
#include "core/pipeline.h"
#include "core/signature.h"

// Batch runtime (sharded execution)
#include "runtime/batch_runner.h"
#include "runtime/shard_plan.h"
#include "runtime/window_audit.h"
#include "runtime/work_stealing_pool.h"

// Streaming runtime (windowed ingest-to-publish service)
#include "service/dispatcher.h"
#include "stream/ingest.h"
#include "stream/stream_types.h"
#include "stream/window_assembler.h"

// Baselines
#include "baselines/adatrace.h"
#include "baselines/dpt.h"
#include "baselines/glove.h"
#include "baselines/identity.h"
#include "baselines/signature_closure.h"
#include "baselines/w4m.h"

// Attacks and metrics
#include "attack/linker.h"
#include "attack/recovery_attack.h"
#include "metrics/utility.h"

#endif  // FRT_FRT_H_
