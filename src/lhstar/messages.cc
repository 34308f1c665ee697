#include "lhstar/messages.h"

#include <algorithm>

#include "net/stats.h"

namespace lhrs {

const char* OpTypeName(OpType op) {
  switch (op) {
    case OpType::kInsert:
      return "Insert";
    case OpType::kSearch:
      return "Search";
    case OpType::kUpdate:
      return "Update";
    case OpType::kDelete:
      return "Delete";
  }
  return "?";
}

void RegisterLhStarMessageNames() {
  // Once per process: every file construction calls this, and the
  // static's initialization is thread-safe for concurrent callers.
  static const bool registered = [] {
    RegisterMessageKindName(LhStarMsg::kOpRequest, "lhstar.OpRequest");
    RegisterMessageKindName(LhStarMsg::kOpReply, "lhstar.OpReply");
    RegisterMessageKindName(LhStarMsg::kOverflowReport,
                            "lhstar.OverflowReport");
    RegisterMessageKindName(LhStarMsg::kSplitOrder, "lhstar.SplitOrder");
    RegisterMessageKindName(LhStarMsg::kMoveRecords, "lhstar.MoveRecords");
    RegisterMessageKindName(LhStarMsg::kSplitDone, "lhstar.SplitDone");
    RegisterMessageKindName(LhStarMsg::kScanRequest, "lhstar.ScanRequest");
    RegisterMessageKindName(LhStarMsg::kScanReply, "lhstar.ScanReply");
    RegisterMessageKindName(LhStarMsg::kClientOpViaCoordinator,
                            "lhstar.ClientOpViaCoordinator");
    RegisterMessageKindName(LhStarMsg::kUnavailableReport,
                            "lhstar.UnavailableReport");
    RegisterMessageKindName(LhStarMsg::kStateScanRequest,
                            "lhstar.StateScanRequest");
    RegisterMessageKindName(LhStarMsg::kStateScanReply,
                            "lhstar.StateScanReply");
    RegisterMessageKindName(LhStarMsg::kSelfCheckRequest,
                            "lhstar.SelfCheckRequest");
    RegisterMessageKindName(LhStarMsg::kSelfCheckReply,
                            "lhstar.SelfCheckReply");
    RegisterMessageKindName(LhStarMsg::kUnderflowReport,
                            "lhstar.UnderflowReport");
    RegisterMessageKindName(LhStarMsg::kMergeOut, "lhstar.MergeOut");
    RegisterMessageKindName(LhStarMsg::kMergeRecords, "lhstar.MergeRecords");
    RegisterMessageKindName(LhStarMsg::kMergeDone, "lhstar.MergeDone");
    RegisterMessageKindName(LhStarMsg::kImageReset, "lhstar.ImageReset");
    RegisterMessageKindName(LhStarMsg::kSurveyRequest, "lhstar.SurveyRequest");
    RegisterMessageKindName(LhStarMsg::kSurveyReply, "lhstar.SurveyReply");
    RegisterMessageKindName(LhStarMsg::kInsertBatch, "lhstar.InsertBatch");
    RegisterMessageKindName(LhStarMsg::kInsertBatchReply,
                            "lhstar.InsertBatchReply");
    return true;
  }();
  (void)registered;
}

bool ScanPredicate::Matches(Key key, std::span<const uint8_t> value) const {
  if (has_key_range && (key < key_min || key > key_max)) return false;
  if (custom) return custom(key, value);
  if (contains.empty()) return true;
  return std::search(value.begin(), value.end(), contains.begin(),
                     contains.end()) != value.end();
}

}  // namespace lhrs
