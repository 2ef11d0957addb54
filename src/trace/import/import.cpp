#include "trace/import/import.hpp"

#include "trace/capture.hpp"
#include "trace/import/hybridsim.hpp"
#include "workload/workload.hpp"

namespace respin::trace {

const char* to_string(ImportErrorKind kind) {
  switch (kind) {
    case ImportErrorKind::kIo:
      return "io error";
    case ImportErrorKind::kSyntax:
      return "syntax error";
    case ImportErrorKind::kBadCoreId:
      return "bad core id";
    case ImportErrorKind::kBadOrder:
      return "interleaving violation";
    case ImportErrorKind::kEmpty:
      return "empty trace";
    case ImportErrorKind::kUnknownFormat:
      return "unknown format";
    case ImportErrorKind::kLimit:
      return "conversion limit exceeded";
  }
  return "unknown import error";
}

const std::vector<const TraceImporter*>& importer_registry() {
  static const HybridSimImporter hybridsim;
  static const std::vector<const TraceImporter*> registry = {&hybridsim};
  return registry;
}

const TraceImporter& importer_for(const std::string& format) {
  for (const TraceImporter* importer : importer_registry()) {
    if (format == importer->format_name()) return *importer;
  }
  throw ImportError(ImportErrorKind::kUnknownFormat,
                    "no importer named '" + format +
                        "' (registered: " + importer_names() + ")");
}

std::string importer_names() {
  std::string names;
  for (const TraceImporter* importer : importer_registry()) {
    if (!names.empty()) names += ", ";
    names += importer->format_name();
  }
  return names;
}

std::uint32_t padded_thread_count(std::uint32_t cores_seen) {
  // make_cluster_config accepts 2/4/8/16/32 cores per cluster; pad up so
  // the imported trace replays through one cluster (the extra threads
  // carry empty streams and finish immediately).
  for (std::uint32_t cluster : {2u, 4u, 8u, 16u, 32u}) {
    if (cores_seen <= cluster) return cluster;
  }
  throw ImportError(ImportErrorKind::kLimit,
                    "trace uses " + std::to_string(cores_seen) +
                        " cores; replay supports at most 32 per cluster");
}

namespace {

/// Derives a benchmark label from the input path: basename without its
/// last extension, prefixed so imported workloads are recognizable in
/// result rows and request keys.
std::string derive_name(const std::string& path) {
  const std::size_t slash = path.find_last_of("/\\");
  std::string base =
      slash == std::string::npos ? path : path.substr(slash + 1);
  const std::size_t dot = base.find_last_of('.');
  if (dot != std::string::npos && dot > 0) base = base.substr(0, dot);
  if (base.empty()) base = "trace";
  return "import:" + base;
}

}  // namespace

ImportStats import_trace(const std::string& format, const std::string& in_path,
                         const std::string& out_path,
                         const ImportOptions& options) {
  const TraceImporter& importer = importer_for(format);

  std::vector<ParsedThread> threads;
  ImportStats stats = importer.parse(in_path, options, threads);
  if (stats.mem_ops == 0) {
    throw ImportError(ImportErrorKind::kEmpty,
                      in_path + " holds no memory accesses");
  }
  // Pad on the highest core id + 1 (threads is indexed by core id), not
  // the distinct-core count — a sparse id space must not drop streams.
  stats.thread_count =
      padded_thread_count(static_cast<std::uint32_t>(threads.size()));
  threads.resize(stats.thread_count);

  TraceHeader header;
  header.thread_count = stats.thread_count;
  header.seed = options.seed;
  header.scale = 1.0;
  header.benchmark = options.name.empty() ? derive_name(in_path) : options.name;
  TraceWriter writer(out_path, header);

  // Imported streams carry no ifetch addresses, but the core model fetches
  // one per fetch group; synthesize the same budget the native recorder
  // uses (capture.hpp) as a deterministic sequential walk over a code
  // window — replay needs addresses, not a branch model.
  constexpr std::uint64_t kCodeBytes = 32 * 1024;
  const mem::Addr code_base = workload::ThreadWorkload::code_base();
  for (std::uint32_t t = 0; t < stats.thread_count; ++t) {
    const ParsedThread& thread = threads[t];
    for (const workload::Op& op : thread.ops) writer.add_op(t, op);
    const std::uint64_t budget = ifetch_budget(thread.instructions);
    for (std::uint64_t i = 0; i < budget; ++i) {
      writer.add_ifetch(t, code_base + (64 * t + 32 * i) % kCodeBytes);
    }
    stats.ifetches += budget;
  }
  writer.finish();
  return stats;
}

}  // namespace respin::trace
