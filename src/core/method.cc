#include "core/method.h"

#include <unordered_set>

#include "storage/relation.h"
#include "util/string_util.h"

namespace mcm::core {

std::string McVariantToString(McVariant v) {
  switch (v) {
    case McVariant::kBasic:
      return "basic";
    case McVariant::kSingle:
      return "single";
    case McVariant::kMultiple:
      return "multiple";
    case McVariant::kRecurring:
      return "recurring";
    case McVariant::kRecurringSmart:
      return "recurring_smart";
  }
  return "?";
}

std::string McModeToString(McMode m) {
  return m == McMode::kIndependent ? "independent" : "integrated";
}

eval::EvalOptions GovernedEvalOptions(const RunOptions& options,
                                      uint64_t default_cap,
                                      runtime::ExecutionContext* local_ctx) {
  eval::EvalOptions eopts;
  eopts.max_iterations =
      options.max_iterations != 0 ? options.max_iterations : default_cap;
  eopts.max_tuples = options.max_tuples;
  eopts.max_memory_bytes = options.max_memory_bytes;
  eopts.assume_validated = options.assume_validated;
  if (options.context != nullptr) {
    eopts.context = options.context;
  } else if (options.timeout_ms > 0) {
    *local_ctx = runtime::ExecutionContext::WithTimeout(options.timeout_ms);
    eopts.context = local_ctx;
  }
  return eopts;
}

uint64_t CountingRoundCap(const RunOptions& options, const Relation* l,
                          Value a) {
  if (options.max_iterations != 0) return options.max_iterations;
  if (l == nullptr) return 1;
  std::unordered_set<Value> reached{a};
  const IndexKey col0{0};
  std::vector<Value> key{a};
  std::vector<Value> frontier{a};
  while (!frontier.empty()) {
    key[0] = frontier.back();
    frontier.pop_back();
    for (uint32_t id : l->PostingsUnchecked(col0, key)) {
      Value next = l->PeekUnchecked(id)[1];
      if (reached.insert(next).second) frontier.push_back(next);
    }
  }
  return reached.size();
}

std::string DetectionModeToString(DetectionMode m) {
  return m == DetectionMode::kAnyDuplicate ? "any_duplicate"
                                           : "differing_index";
}

std::string MethodRun::ToString() const {
  return StringPrintf(
      "%-28s answers=%zu reads=%llu (step1=%llu step2=%llu) iters=%llu "
      "|MS|=%zu |RM|=%zu |RC|=%zu class=%s %.3fms",
      method.c_str(), answers.size(),
      static_cast<unsigned long long>(total.tuples_read),
      static_cast<unsigned long long>(step1.tuples_read),
      static_cast<unsigned long long>(step2.tuples_read),
      static_cast<unsigned long long>(step2_iterations), ms_size, rm_size,
      rc_size, graph::GraphClassToString(detected_class).c_str(),
      seconds * 1e3);
}

}  // namespace mcm::core
