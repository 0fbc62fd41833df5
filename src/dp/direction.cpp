#include "dp/direction.hpp"

#include <algorithm>

#include "dp/kernel_simd.hpp"
#include "support/assert.hpp"

namespace flsa {

static_assert(static_cast<std::uint8_t>(Move::kDiag) == kDirDiag &&
                  static_cast<std::uint8_t>(Move::kUp) == kDirUp &&
                  static_cast<std::uint8_t>(Move::kLeft) == kDirLeft,
              "a linear direction byte is the Move it records");

std::size_t direction_sweep_bytes(std::size_t cells, std::size_t side,
                                  bool affine) {
  const std::size_t score_rows = affine ? 7 : 3;
  return cells + kDirectionPad +
         score_rows * (side + 1 + kDirectionPad) * sizeof(Score);
}

namespace {

void require_dirs(const DirectionView& dirs, std::size_t rows,
                  std::size_t cols) {
  FLSA_REQUIRE(dirs.rows == rows && dirs.cols == cols);
  FLSA_REQUIRE(dirs.bytes != nullptr);
}

// The row loops walk a row left to right through the anti-diagonal
// layout without re-deriving each cell's offset.
std::size_t first_cell_of_row(const DirectionView& dirs, std::size_t r) {
  return dirs.offset(r + 1) + r - dirs.first_row(r + 1);
}

/// From cell (r, c) on diagonal d = r + c to cell (r, c + 1): the rest of
/// diagonal d plus the part of diagonal d + 1 above row r.
std::size_t step_right(const DirectionView& dirs, std::size_t d) {
  return std::min(d - 1, dirs.rows) + 1 - dirs.first_row(d + 1);
}

}  // namespace

void sweep_directions_linear(std::span<const Residue> a,
                             std::span<const Residue> b,
                             const ScoringScheme& scheme,
                             std::span<const Score> top,
                             std::span<const Score> left,
                             std::span<Score> out_bottom,
                             std::span<Score> out_right,
                             const DirectionView& dirs,
                             DpCounters* counters) {
  const std::size_t rows = a.size();
  const std::size_t cols = b.size();
  FLSA_REQUIRE(scheme.is_linear());
  FLSA_REQUIRE(top.size() == cols + 1);
  FLSA_REQUIRE(left.size() == rows + 1);
  FLSA_REQUIRE(top[0] == left[0]);
  FLSA_REQUIRE(out_bottom.size() == cols + 1);
  FLSA_REQUIRE(out_right.empty() || out_right.size() == rows + 1);
  require_dirs(dirs, rows, cols);

  const Score gap = scheme.gap_extend();
  const SubstitutionMatrix& sub = scheme.matrix();
  if (out_bottom.data() != top.data()) {
    std::copy(top.begin(), top.end(), out_bottom.begin());
  }
  Score* row = out_bottom.data();
  if (!out_right.empty()) out_right[0] = row[cols];

  for (std::size_t r = 1; r <= rows; ++r) {
    Score diag = row[0];
    row[0] = left[r];
    const Residue ar = a[r - 1];
    std::size_t at = first_cell_of_row(dirs, r);
    for (std::size_t c = 1; c <= cols; ++c) {
      const Score up = row[c];
      const Score lf = row[c - 1];
      const Score match = diag + sub.at(ar, b[c - 1]);
      const Score gapped = std::max(up, lf) + gap;
      dirs.bytes[at] =
          match >= gapped ? kDirDiag : (lf > up ? kDirLeft : kDirUp);
      at += step_right(dirs, r + c);
      diag = up;
      row[c] = std::max(match, gapped);
    }
    if (!out_right.empty()) out_right[r] = row[cols];
  }
  if (counters) {
    counters->cells_stored += static_cast<std::uint64_t>(rows) * cols;
  }
}

void sweep_directions_linear(KernelKind kind, std::span<const Residue> a,
                             std::span<const Residue> b,
                             const ScoringScheme& scheme,
                             std::span<const Score> top,
                             std::span<const Score> left,
                             std::span<Score> out_bottom,
                             std::span<Score> out_right,
                             const DirectionView& dirs,
                             DpCounters* counters) {
  if (resolve_kernel(kind) == KernelKind::kScalar) {
    sweep_directions_linear(a, b, scheme, top, left, out_bottom, out_right,
                            dirs, counters);
  } else {
    sweep_directions_linear_simd(a, b, scheme, top, left, out_bottom,
                                 out_right, dirs, counters);
  }
}

void sweep_directions_affine(std::span<const Residue> a,
                             std::span<const Residue> b,
                             const ScoringScheme& scheme,
                             std::span<const AffineCell> top,
                             std::span<const AffineCell> left,
                             std::span<AffineCell> out_bottom,
                             std::span<AffineCell> out_right,
                             const DirectionView& dirs,
                             DpCounters* counters) {
  const std::size_t rows = a.size();
  const std::size_t cols = b.size();
  FLSA_REQUIRE(top.size() == cols + 1);
  FLSA_REQUIRE(left.size() == rows + 1);
  FLSA_REQUIRE(top[0] == left[0]);
  FLSA_REQUIRE(out_bottom.size() == cols + 1);
  FLSA_REQUIRE(out_right.empty() || out_right.size() == rows + 1);
  require_dirs(dirs, rows, cols);

  const Score open = scheme.gap_open();
  const Score ext = scheme.gap_extend();
  const SubstitutionMatrix& sub = scheme.matrix();
  if (out_bottom.data() != top.data()) {
    std::copy(top.begin(), top.end(), out_bottom.begin());
  }
  AffineCell* row = out_bottom.data();
  if (!out_right.empty()) out_right[0] = row[cols];

  for (std::size_t r = 1; r <= rows; ++r) {
    AffineCell diag = row[0];
    row[0] = left[r];
    const Residue ar = a[r - 1];
    std::size_t at = first_cell_of_row(dirs, r);
    for (std::size_t c = 1; c <= cols; ++c) {
      const AffineCell up = row[c];
      const AffineCell& lf = row[c - 1];
      AffineCell cell;
      cell.ix = std::max(up.d + open, up.ix) + ext;
      cell.iy = std::max(lf.d + open, lf.iy) + ext;
      const Score match = diag.d + sub.at(ar, b[c - 1]);
      cell.d = std::max(match, std::max(cell.ix, cell.iy));
      std::uint8_t dir =
          match == cell.d ? kDirDiag : (cell.iy > cell.ix ? kDirLeft : kDirUp);
      if (up.d + open >= up.ix) dir |= kDirIxOpen;
      if (lf.d + open >= lf.iy) dir |= kDirIyOpen;
      dirs.bytes[at] = dir;
      at += step_right(dirs, r + c);
      diag = up;
      row[c] = cell;
    }
    if (!out_right.empty()) out_right[r] = row[cols];
  }
  if (counters) {
    counters->cells_stored += static_cast<std::uint64_t>(rows) * cols;
  }
}

void sweep_directions_affine(KernelKind kind, std::span<const Residue> a,
                             std::span<const Residue> b,
                             const ScoringScheme& scheme,
                             std::span<const AffineCell> top,
                             std::span<const AffineCell> left,
                             std::span<AffineCell> out_bottom,
                             std::span<AffineCell> out_right,
                             const DirectionView& dirs,
                             DpCounters* counters) {
  if (resolve_kernel(kind) == KernelKind::kScalar) {
    sweep_directions_affine(a, b, scheme, top, left, out_bottom, out_right,
                            dirs, counters);
  } else {
    sweep_directions_affine_simd(a, b, scheme, top, left, out_bottom,
                                 out_right, dirs, counters);
  }
}

void traceback_directions_linear(const DirectionView& dirs,
                                 std::size_t start_row, std::size_t start_col,
                                 Path& path, DpCounters* counters) {
  FLSA_REQUIRE(start_row <= dirs.rows && start_col <= dirs.cols);
  std::size_t r = start_row;
  std::size_t c = start_col;
  std::uint64_t steps = 0;
  while (r > 0 && c > 0) {
    const std::uint8_t dir = dirs.at(r, c);
    FLSA_ASSERT(dir <= kDirLeft);
    path.push_traceback(static_cast<Move>(dir));
    if (dir != kDirLeft) --r;
    if (dir != kDirUp) --c;
    ++steps;
  }
  if (counters) counters->traceback_steps += steps;
}

AffineState traceback_directions_affine(const DirectionView& dirs,
                                        std::size_t start_row,
                                        std::size_t start_col,
                                        AffineState state, Path& path,
                                        DpCounters* counters) {
  FLSA_REQUIRE(start_row <= dirs.rows && start_col <= dirs.cols);
  std::size_t r = start_row;
  std::size_t c = start_col;
  std::uint64_t steps = 0;
  while (r > 0 && c > 0) {
    const std::uint8_t dir = dirs.at(r, c);
    switch (state) {
      case AffineState::kD:
        switch (dir & kDirSourceMask) {
          case kDirDiag:
            path.push_traceback(Move::kDiag);
            --r;
            --c;
            ++steps;
            break;
          case kDirUp:
            state = AffineState::kIx;
            break;
          default:
            state = AffineState::kIy;
            break;
        }
        break;
      case AffineState::kIx:
        path.push_traceback(Move::kUp);
        if (dir & kDirIxOpen) state = AffineState::kD;
        --r;
        ++steps;
        break;
      case AffineState::kIy:
        path.push_traceback(Move::kLeft);
        if (dir & kDirIyOpen) state = AffineState::kD;
        --c;
        ++steps;
        break;
    }
  }
  if (counters) counters->traceback_steps += steps;
  return state;
}

}  // namespace flsa
