// A 53-byte TITB file whose only frame declares a size that wraps: a v2
// header for one rank, an index frame whose preamble declares 2^64 - 4
// payload bytes, and a footer pointing at it.  The frame's body offset plus
// that size plus its 4-byte CRC wraps to exactly the footer, so a bounds
// check that adds the declared size to an offset accepts it.
#pragma once

#include <filesystem>
#include <fstream>
#include <string>

namespace tir::test {

inline const std::string kWrappedIndexTitb(
    "TITB\x02\x00\x00\x00\x01\x00\x00\x00"                   // magic, v2, flags, nprocs 1
    "I\x00\x00\xfc\xff\xff\xff\xff\xff\xff\xff\xff\x01"      // 'I', 0, 0, size 2^64 - 4
    "\x0c\x00\x00\x00\x00\x00\x00\x00"                       // index offset 12
    "\x00\x00\x00\x00\x00\x00\x00\x00"                       // no checkpoints
    "\x00\x00\x00\x00\x00\x00\x00\x00"                       // 0 actions
    "TITE",
    53);

/// Writes kWrappedIndexTitb to `path`.
inline void write_wrapped_index_titb(const std::filesystem::path& path) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << kWrappedIndexTitb;
}

}  // namespace tir::test
