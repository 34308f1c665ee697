#include "lhrs/messages.h"

#include "net/stats.h"

namespace lhrs {

void RegisterLhrsMessageNames() {
  // Once per process: every file construction calls this, and the
  // static's initialization is thread-safe for concurrent callers.
  static const bool registered = [] {
    RegisterMessageKindName(LhrsMsg::kParityDelta, "lhrs.ParityDelta");
    RegisterMessageKindName(LhrsMsg::kParityDeltaBatch,
                            "lhrs.ParityDeltaBatch");
    RegisterMessageKindName(LhrsMsg::kGroupConfig, "lhrs.GroupConfig");
    RegisterMessageKindName(LhrsMsg::kColumnReadRequest,
                            "lhrs.ColumnReadRequest");
    RegisterMessageKindName(LhrsMsg::kColumnReadReply, "lhrs.ColumnReadReply");
    RegisterMessageKindName(LhrsMsg::kInstallDataColumn,
                            "lhrs.InstallDataColumn");
    RegisterMessageKindName(LhrsMsg::kInstallParityColumn,
                            "lhrs.InstallParityColumn");
    RegisterMessageKindName(LhrsMsg::kInstallDone, "lhrs.InstallDone");
    RegisterMessageKindName(LhrsMsg::kFindRankRequest, "lhrs.FindRankRequest");
    RegisterMessageKindName(LhrsMsg::kFindRankReply, "lhrs.FindRankReply");
    RegisterMessageKindName(LhrsMsg::kRecordReadRequest,
                            "lhrs.RecordReadRequest");
    RegisterMessageKindName(LhrsMsg::kRecordReadReply, "lhrs.RecordReadReply");
    RegisterMessageKindName(LhrsMsg::kParityRecordRequest,
                            "lhrs.ParityRecordRequest");
    RegisterMessageKindName(LhrsMsg::kParityRecordReply,
                            "lhrs.ParityRecordReply");
    RegisterMessageKindName(LhrsMsg::kPingRequest, "lhrs.PingRequest");
    RegisterMessageKindName(LhrsMsg::kPongReply, "lhrs.PongReply");
    return true;
  }();
  (void)registered;
}

}  // namespace lhrs
