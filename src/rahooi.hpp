#pragma once
// Umbrella header: the full public API of the rahooi library.
//
//   #include "rahooi.hpp"
//
// Layers (see README.md / DESIGN.md for the architecture):
//   - local tensors & Tucker containers  (rahooi::tensor)
//   - dense linear algebra               (rahooi::la)
//   - message-passing runtime            (rahooi::comm)
//   - distributed tensors & kernels      (rahooi::dist)
//   - decomposition algorithms           (rahooi::core)
//   - cost model & calibration           (rahooi::model)
//   - dataset generators                 (rahooi::data)
//   - parameter files & tensor IO        (rahooi::io)

#include "comm/runtime.hpp"
#include "common/contracts.hpp"
#include "common/csv.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/stopwatch.hpp"
#include "core/core_analysis.hpp"
#include "core/dimension_tree.hpp"
#include "core/hooi.hpp"
#include "core/llsv.hpp"
#include "core/options.hpp"
#include "core/rank_adaptive.hpp"
#include "core/serial_api.hpp"
#include "core/sthosvd.hpp"
#include "data/dataset.hpp"
#include "data/science.hpp"
#include "data/synthetic.hpp"
#include "dist/dist_ops.hpp"
#include "dist/dist_tensor.hpp"
#include "dist/grid.hpp"
#include "io/param_file.hpp"
#include "io/tensor_io.hpp"
#include "la/blas.hpp"
#include "la/eig.hpp"
#include "la/matrix.hpp"
#include "la/qr.hpp"
#include "la/svd.hpp"
#include "model/calibration.hpp"
#include "model/cost_model.hpp"
#include "tensor/tensor.hpp"
#include "tensor/ttm.hpp"
#include "tensor/tucker_tensor.hpp"
