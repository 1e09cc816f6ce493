// tit-convert: convert Time-Independent Traces between the line-based text
// format and the TITB streaming binary format (docs/trace_format.md).
//
//   $ tit-convert text2bin TRACE.manifest OUT.titb [NPROCS]
//   $ tit-convert bin2text IN.titb OUTDIR BASENAME
//   $ tit-convert info     IN.titb
//   $ tit-convert validate TRACE.manifest|IN.titb [NPROCS]
//
// Both conversions stream: memory stays bounded by one frame per rank no
// matter how large the trace is. NPROCS is only needed for single-file
// manifests (all ranks sharing one text file, paper §3.3).
//
// `validate` cross-checks the per-rank action streams before any replay
// (send/recv matching, collective agreement, partner bounds, volume
// sanity; docs/robustness.md) and prints the full report. Exit 0 when the
// trace is replayable, 1 when it has errors.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "base/error.hpp"
#include "base/units.hpp"
#include "cli_args.hpp"
#include "tit/trace.hpp"
#include "tit/validate.hpp"
#include "titio/reader.hpp"
#include "titio/writer.hpp"

namespace {

using namespace tir;

int text2bin(const std::string& manifest_path, const std::string& out_path, int nprocs) {
  namespace fs = std::filesystem;
  const tit::Manifest manifest = tit::resolve_manifest(manifest_path, nprocs);
  if (manifest.nprocs == 0) {
    // A usage error, not an I/O one: the invocation is missing an argument.
    std::fprintf(stderr,
                 "tit-convert: single-file manifest %s needs an explicit NPROCS argument\n",
                 manifest_path.c_str());
    return 2;
  }
  titio::Writer writer(out_path, manifest.nprocs);
  tit::for_each_action(manifest, [&](const tit::Action& a) { writer.add(a); });
  writer.finish();
  std::printf("%s: %llu actions, %d ranks -> %s (%s)\n", manifest_path.c_str(),
              static_cast<unsigned long long>(writer.actions_written()), manifest.nprocs,
              out_path.c_str(),
              units::format_bytes(static_cast<double>(fs::file_size(out_path))).c_str());
  return 0;
}

int bin2text(const std::string& in_path, const std::string& out_dir,
             const std::string& basename) {
  namespace fs = std::filesystem;
  titio::Reader reader(in_path);
  fs::create_directories(out_dir);
  const std::string manifest_path = (fs::path(out_dir) / (basename + ".manifest")).string();
  std::ofstream manifest(manifest_path);
  if (!manifest) throw Error("cannot write manifest: " + manifest_path);
  tit::Action a;
  for (int r = 0; r < reader.nprocs(); ++r) {
    const std::string fname = basename + "_" + std::to_string(r) + ".tit";
    const std::string path = (fs::path(out_dir) / fname).string();
    std::ofstream out(path);
    if (!out) throw Error("cannot write trace file: " + path);
    while (reader.next(r, a)) out << tit::to_line(a) << '\n';
    manifest << fname << '\n';
  }
  std::printf("%s: %llu actions, %d ranks -> %s\n", in_path.c_str(),
              static_cast<unsigned long long>(reader.total_actions()), reader.nprocs(),
              manifest_path.c_str());
  return 0;
}

int info(const std::string& path) {
  namespace fs = std::filesystem;
  titio::Reader reader(path);
  std::printf("file     : %s (%s)\n", path.c_str(),
              units::format_bytes(static_cast<double>(fs::file_size(path))).c_str());
  std::printf("format   : TITB v%u\n", titio::kVersion);
  std::printf("processes: %d\n", reader.nprocs());
  std::printf("actions  : %llu in %zu frames\n",
              static_cast<unsigned long long>(reader.total_actions()), reader.frame_count());
  reader.verify();
  std::printf("integrity: all frame CRCs ok\n");
  return 0;
}

int validate(const std::string& path, int nprocs) {
  // Materialize from either format (the validator needs random access to
  // whole per-rank streams), then cross-check.
  const tit::Trace trace =
      titio::is_binary_trace(path) ? titio::read_binary_trace(path) : tit::load_trace(path, nprocs);
  const tit::ValidationReport report = tit::validate_trace(trace);
  std::fputs(tit::to_string(report).c_str(), stdout);
  return report.ok() ? 0 : 1;
}

}  // namespace

/// Strict NPROCS parse: a positive decimal integer or nothing.  atoi-style
/// leniency ("8x" -> 8, "banana" -> 0) would silently convert the wrong
/// number of ranks.
bool parse_nprocs(const char* s, int& out) { return tir::cli::parse_number(s, out) && out > 0; }

int main(int argc, char** argv) {
  const std::string usage =
      "usage: tit-convert text2bin TRACE.manifest OUT.titb [NPROCS]\n"
      "       tit-convert bin2text IN.titb OUTDIR BASENAME\n"
      "       tit-convert info     IN.titb\n"
      "       tit-convert validate TRACE.manifest|IN.titb [NPROCS]\n";
  try {
    // No flags in this tool: anything dash-prefixed is a usage error, not a
    // file name to be consumed by accident.
    for (int i = 1; i < argc; ++i) {
      if (argv[i][0] == '-' && argv[i][1] != '\0') {
        std::fprintf(stderr, "tit-convert: unknown option '%s'\n", argv[i]);
        std::fputs(usage.c_str(), stderr);
        return 2;
      }
    }
    const std::string mode = argc > 1 ? argv[1] : "";
    int nprocs = -1;
    if (mode == "text2bin" && (argc == 4 || argc == 5)) {
      if (argc == 5 && !parse_nprocs(argv[4], nprocs)) {
        std::fprintf(stderr, "tit-convert: NPROCS wants a positive integer, got '%s'\n",
                     argv[4]);
        std::fputs(usage.c_str(), stderr);
        return 2;
      }
      return text2bin(argv[2], argv[3], nprocs);
    }
    if (mode == "bin2text" && argc == 5) return bin2text(argv[2], argv[3], argv[4]);
    if (mode == "info" && argc == 3) return info(argv[2]);
    if (mode == "validate" && (argc == 3 || argc == 4)) {
      if (argc == 4 && !parse_nprocs(argv[3], nprocs)) {
        std::fprintf(stderr, "tit-convert: NPROCS wants a positive integer, got '%s'\n",
                     argv[3]);
        std::fputs(usage.c_str(), stderr);
        return 2;
      }
      return validate(argv[2], nprocs);
    }
    std::fputs(usage.c_str(), stderr);
    return 2;
  } catch (const tir::Error& e) {
    std::fprintf(stderr, "tit-convert: %s\n", e.what());
    return 1;
  }
}
