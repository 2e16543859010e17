#include "dist/dist_ops.hpp"

#include <numeric>

#include "la/qr.hpp"
#include "metrics/metrics.hpp"
#include "prof/trace.hpp"
#include "tensor/ttm.hpp"

namespace rahooi::dist {

template <typename T>
DistTensor<T> dist_ttm(const DistTensor<T>& x, int mode,
                       la::ConstMatrixRef<T> u) {
  prof::TraceSpan span("dist_ttm", static_cast<std::int64_t>(mode));
  const ProcessorGrid& grid = x.grid();
  RAHOOI_REQUIRE(mode >= 0 && mode < x.ndims(), "dist_ttm: bad mode");
  RAHOOI_REQUIRE(u.rows == x.global_dim(mode),
                 "dist_ttm: factor rows must equal the global mode dim");
  const idx_t r = u.cols;
  const int pj = grid.dim(mode);

  // Local partial: contract this rank's block with its row slice of U,
  // producing the full r extent in `mode`.
  const idx_t my_off = x.local_offset(mode);
  const idx_t my_len = x.local_dim(mode);
  auto u_slice = u.block(my_off, 0, my_len, r);
  tensor::Tensor<T> partial;
  {
    // The partial product is communication scratch, not a live tensor:
    // charge it (and the kernel pack panels underneath) to pack_buffer.
    const metrics::MemScopeGuard pack_scope(metrics::MemScope::pack_buffer);
    partial = tensor::ttm(x.local(), mode, u_slice, la::Op::transpose);
  }

  std::vector<idx_t> out_global = x.global_dims();
  out_global[mode] = r;
  DistTensor<T> y(grid, std::move(out_global));

  if (pj == 1) {
    y.local() = std::move(partial);
    // The moved buffer carries its pack_buffer charge; it just became the
    // result's local block, so re-tag it like the DistTensor ctor would.
    y.local().set_mem_scope(metrics::dist_scope());
    return y;
  }

  // Reduce-scatter the partials along the mode's grid dimension. Pack the
  // partial so that destination q's slice (its block of the r extent) is
  // contiguous and already in q's local first-mode-fastest layout.
  const idx_t left = partial.left_size(mode);
  const idx_t right = partial.right_size(mode);
  std::vector<idx_t> counts(pj);
  std::vector<T> sendbuf(static_cast<std::size_t>(partial.size()));
  const metrics::ScopedBytes sendbuf_bytes(
      metrics::MemScope::pack_buffer,
      static_cast<double>(sendbuf.size()) * sizeof(T));
  idx_t base = 0;
  for (int q = 0; q < pj; ++q) {
    const idx_t off = block_offset(r, pj, q);
    const idx_t len = block_size(r, pj, q);
    counts[q] = left * len * right;
    for (idx_t s = 0; s < right; ++s) {
      auto sl = partial.slab(mode, s);
      for (idx_t a = 0; a < len; ++a) {
        const T* src = sl.col(off + a);
        std::copy(src, src + left, sendbuf.data() + base +
                                       (s * len + a) * left);
      }
    }
    base += counts[q];
  }
  grid.mode_comm(mode).reduce_scatter_sum(sendbuf.data(), y.local().data(),
                                          counts);
  return y;
}

namespace {

/// Uninitialized scratch of n elements, charged to pack_buffer through mem.
template <typename T>
std::unique_ptr<T[]> pack_scratch(idx_t n, metrics::TrackedBytes& mem) {
  mem.acquire_as(metrics::MemScope::pack_buffer,
                 static_cast<double>(n) * sizeof(T));
  return std::make_unique_for_overwrite<T[]>(static_cast<std::size_t>(n));
}

}  // namespace

template <typename T>
ModeRowBlocks<T> redistribute_mode(const DistTensor<T>& x, int mode) {
  prof::TraceSpan span("redistribute", static_cast<std::int64_t>(mode));
  const ProcessorGrid& grid = x.grid();
  RAHOOI_REQUIRE(mode >= 0 && mode < x.ndims(),
                 "redistribute_mode: bad mode");
  const int pj = grid.dim(mode);
  const idx_t n = x.global_dim(mode);
  const idx_t m_loc = x.local_dim(mode);
  const idx_t left = x.local().left_size(mode);
  const idx_t right = x.local().right_size(mode);
  const idx_t fibers = left * right;  // identical across the mode comm

  ModeRowBlocks<T> out;
  out.fibers = block_size(fibers, pj, grid.coord(mode));

  // The local unfolding as an (m_loc x fibers) column-major matrix: the
  // local block itself in mode 0, else one blocked transpose per slab
  // (fibers [s*left, (s+1)*left) are slab s transposed). Fiber f then sits
  // at offset f * m_loc, so every destination's chunk is contiguous.
  const T* unfolding = x.local().data();
  std::unique_ptr<T[]> packed;
  metrics::TrackedBytes packed_mem;
  if (left > 1) {
    packed = pack_scratch<T>(m_loc * fibers, packed_mem);
    T* dst = packed.get();
    for (idx_t s = 0; s < right; ++s) {
      la::transpose(x.local().slab(mode, s),
                    la::MatrixRef<T>{dst + s * left * m_loc, m_loc, left,
                                     m_loc});
    }
    unfolding = dst;
  }
  if (pj == 1) {
    out.blocks = {la::ConstMatrixRef<T>{unfolding, n, fibers, n}};
    out.row_offset = {0};
    out.storage = std::move(packed);
    out.storage_mem = std::move(packed_mem);
    return out;
  }

  // Source q supplies rows [row_offset_q, +m_q) of each fiber in my chunk.
  std::vector<idx_t> sdispls(pj), recvcounts(pj), rdispls(pj);
  for (int q = 0; q < pj; ++q) {
    sdispls[q] = block_offset(fibers, pj, q) * m_loc;
    out.row_offset.push_back(block_offset(n, pj, q));
    recvcounts[q] = block_size(n, pj, q) * out.fibers;
    rdispls[q] = out.row_offset[q] * out.fibers;
  }
  out.storage = pack_scratch<T>(n * out.fibers, out.storage_mem);
  T* recv = out.storage.get();
  grid.mode_comm(mode).alltoallv(unfolding, sdispls, recv, recvcounts,
                                 rdispls);
  for (int q = 0; q < pj; ++q) {
    const idx_t m_q = block_size(n, pj, q);
    out.blocks.push_back(la::ConstMatrixRef<T>{
        recv + rdispls[q], m_q, out.fibers, std::max<idx_t>(m_q, 1)});
  }
  return out;
}

template <typename T>
la::Matrix<T> dist_mode_gram(const DistTensor<T>& x, int mode) {
  prof::TraceSpan span("dist_gram", static_cast<std::int64_t>(mode));
  const ModeRowBlocks<T> rows = redistribute_mode(x, mode);
  const idx_t n = x.global_dim(mode);
  la::Matrix<T> gram(n, n);
  // Block (q, r) of G is R_q R_r^T: SYRK on the diagonal and GEMM below it
  // count sum_q m_q(m_q+1) F + sum_{q>r} 2 m_q m_r F = n(n+1) F flops, the
  // same as one SYRK over the assembled n x F columns.
  for (std::size_t q = 0; q < rows.blocks.size(); ++q) {
    const la::ConstMatrixRef<T> rq = rows.blocks[q];
    const idx_t oq = rows.row_offset[q];
    la::syrk(T{1}, rq, T{0}, gram.ref().block(oq, oq, rq.rows, rq.rows));
    for (std::size_t r = 0; r < q; ++r) {
      const la::ConstMatrixRef<T> rr = rows.blocks[r];
      la::gemm(la::Op::none, la::Op::transpose, T{1}, rq, rr, T{0},
               gram.ref().block(oq, rows.row_offset[r], rq.rows, rr.rows));
    }
  }
  for (idx_t j = 1; j < n; ++j) {
    for (idx_t i = 0; i < j; ++i) gram(i, j) = gram(j, i);
  }
  x.grid().world().allreduce_sum(gram.data(), gram.size());
  return gram;
}

template <typename T>
la::Matrix<T> dist_contract_all_but_one(const DistTensor<T>& y,
                                        const DistTensor<T>& g, int mode) {
  prof::TraceSpan span("contract", static_cast<std::int64_t>(mode));
  RAHOOI_REQUIRE(&y.grid() == &g.grid(),
                 "contraction operands must share a processor grid");
  for (int j = 0; j < y.ndims(); ++j) {
    RAHOOI_REQUIRE(j == mode || y.global_dim(j) == g.global_dim(j),
                   "contraction operands must agree in non-contracted dims");
  }
  const ModeRowBlocks<T> yrows = redistribute_mode(y, mode);
  const ModeRowBlocks<T> grows = redistribute_mode(g, mode);
  RAHOOI_REQUIRE(yrows.fibers == grows.fibers,
                 "contraction fiber chunks must align");
  // Block (q, r) of Z is Y_q G_r^T.
  la::Matrix<T> z(y.global_dim(mode), g.global_dim(mode));
  for (std::size_t q = 0; q < yrows.blocks.size(); ++q) {
    for (std::size_t r = 0; r < grows.blocks.size(); ++r) {
      const la::ConstMatrixRef<T> yq = yrows.blocks[q];
      const la::ConstMatrixRef<T> gr = grows.blocks[r];
      la::gemm(la::Op::none, la::Op::transpose, T{1}, yq, gr, T{0},
               z.ref().block(yrows.row_offset[q], grows.row_offset[r],
                             yq.rows, gr.rows));
    }
  }
  y.grid().world().allreduce_sum(z.data(), z.size());
  return z;
}

template <typename T>
la::Matrix<T> dist_mode_tsqr_r(const DistTensor<T>& x, int mode) {
  prof::TraceSpan span("tsqr", static_cast<std::int64_t>(mode));
  const idx_t n = x.global_dim(mode);
  const ModeRowBlocks<T> rows = redistribute_mode(x, mode);

  // Local stage: rows of the transposed unfolding this rank owns, built
  // from the transposed row blocks. When the rank holds at least n columns,
  // compress them to an n x n R factor; otherwise the (fewer-than-n)-row
  // block itself is this rank's contribution (its Gram is preserved either
  // way).
  la::Matrix<T> colsT(rows.fibers, n);
  for (std::size_t q = 0; q < rows.blocks.size(); ++q) {
    la::transpose(rows.blocks[q],
                  colsT.ref().block(0, rows.row_offset[q], rows.fibers,
                                    rows.blocks[q].rows));
  }
  la::Matrix<T> local =
      colsT.rows() >= n ? la::qr_thin<T>(colsT.cref()).r : std::move(colsT);

  // Combine stage: gather every rank's factor (allgatherv of at-most-n-row
  // blocks) and QR the stack. Replicated result; the gathered payload is
  // O(P n^2), far below the Gram allreduce of the EVD path for n << F.
  const comm::Comm& world = x.grid().world();
  const int p = world.size();
  std::vector<idx_t> counts(p);
  const idx_t mine = local.rows() * n;
  {
    std::vector<idx_t> rows(p);
    idx_t my_rows = local.rows();
    world.allgather(&my_rows, rows.data(), 1);
    for (int r = 0; r < p; ++r) counts[r] = rows[r] * n;
  }
  idx_t total_rows = 0;
  for (int r = 0; r < p; ++r) total_rows += counts[r] / n;
  std::vector<T> gathered(static_cast<std::size_t>(total_rows * n));
  const metrics::ScopedBytes gathered_bytes(
      metrics::MemScope::pack_buffer,
      static_cast<double>(gathered.size()) * sizeof(T));
  world.allgatherv(local.data(), gathered.data(), counts);
  RAHOOI_REQUIRE(mine == local.rows() * n, "tsqr: inconsistent local rows");

  // Each rank's block is column-major (rows_r x n); restack into one
  // column-major (total_rows x n) matrix.
  la::Matrix<T> stacked(total_rows, n);
  idx_t base = 0, row0 = 0;
  for (int r = 0; r < p; ++r) {
    const idx_t rows_r = counts[r] / n;
    for (idx_t j = 0; j < n; ++j) {
      for (idx_t i = 0; i < rows_r; ++i) {
        stacked(row0 + i, j) = gathered[base + i + j * rows_r];
      }
    }
    base += counts[r];
    row0 += rows_r;
  }
  if (stacked.rows() < n) {
    // Degenerate global case (fewer unfolding columns than n): pad with
    // zero rows so the final QR is well-defined.
    la::Matrix<T> padded(n, n);
    for (idx_t j = 0; j < n; ++j) {
      for (idx_t i = 0; i < stacked.rows(); ++i) {
        padded(i, j) = stacked(i, j);
      }
    }
    stacked = std::move(padded);
  }
  return la::qr_thin<T>(stacked.cref()).r;
}

#define RAHOOI_INSTANTIATE_DIST_OPS(T)                                  \
  template DistTensor<T> dist_ttm<T>(const DistTensor<T>&, int,         \
                                     la::ConstMatrixRef<T>);            \
  template ModeRowBlocks<T> redistribute_mode<T>(const DistTensor<T>&, \
                                                 int);                  \
  template la::Matrix<T> dist_mode_gram<T>(const DistTensor<T>&, int);  \
  template la::Matrix<T> dist_contract_all_but_one<T>(                  \
      const DistTensor<T>&, const DistTensor<T>&, int);                 \
  template la::Matrix<T> dist_mode_tsqr_r<T>(const DistTensor<T>&, int);

RAHOOI_INSTANTIATE_DIST_OPS(float)
RAHOOI_INSTANTIATE_DIST_OPS(double)

#undef RAHOOI_INSTANTIATE_DIST_OPS

}  // namespace rahooi::dist
