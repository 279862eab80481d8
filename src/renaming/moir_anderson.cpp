#include "renaming/moir_anderson.h"

#include "core/assert.h"
#include "core/lazy.h"

namespace renamelib::renaming {

MoirAndersonRenaming::MoirAndersonRenaming(std::size_t max_processes)
    : side_(max_processes) {
  RENAMELIB_ENSURE(side_ >= 1, "need at least one process");
  // Triangle with rows of length side_, side_-1, ..., 1.
  rows_ = std::make_unique<std::atomic<splitter::Splitter*>[]>(side_);
}

splitter::Splitter& MoirAndersonRenaming::at(const Ctx& ctx, std::size_t row,
                                             std::size_t col) {
  RENAMELIB_ENSURE(row + col < side_, "grid coordinates out of the triangle");
  splitter::Splitter* cells = publish_once_with(rows_[row], [&] {
    return pool_.make_array<splitter::Splitter>(ctx, side_ - row);
  }).first;
  return cells[col];
}

std::uint64_t MoirAndersonRenaming::name_of(std::size_t row,
                                            std::size_t col) const {
  const std::uint64_t d = row + col;
  return d * (d + 1) / 2 + row + 1;  // position within the diagonal
}

MoirAndersonRenaming::Outcome MoirAndersonRenaming::rename_instrumented(
    Ctx& ctx, std::uint64_t initial_id) {
  RENAMELIB_ENSURE(initial_id != 0, "initial ids must be nonzero");
  LabelScope label{ctx, "moir_anderson/rename"};
  Outcome out;
  std::size_t row = 0;
  std::size_t col = 0;
  for (;;) {
    ++out.moves;
    switch (at(ctx, row, col).acquire(ctx, initial_id)) {
      case splitter::SplitterOutcome::kStop:
        out.name = name_of(row, col);
        return out;
      case splitter::SplitterOutcome::kRight:
        ++col;
        break;
      case splitter::SplitterOutcome::kDown:
        ++row;
        break;
    }
    // With at most side_ participants the walk stays inside the triangle
    // (at() ENSUREs it): each move is charged to a distinct other process.
  }
}

std::uint64_t MoirAndersonRenaming::rename(Ctx& ctx, std::uint64_t initial_id) {
  return rename_instrumented(ctx, initial_id).name;
}

}  // namespace renamelib::renaming
