#include "ldap/message.h"

namespace udr::ldap {

const char* LdapOpName(LdapOp op) {
  switch (op) {
    case LdapOp::kSearch:
      return "Search";
    case LdapOp::kAdd:
      return "Add";
    case LdapOp::kModify:
      return "Modify";
    case LdapOp::kDelete:
      return "Delete";
    case LdapOp::kCompare:
      return "Compare";
  }
  return "?";
}

const char* LdapResultCodeName(LdapResultCode code) {
  switch (code) {
    case LdapResultCode::kSuccess:
      return "success";
    case LdapResultCode::kOperationsError:
      return "operationsError";
    case LdapResultCode::kProtocolError:
      return "protocolError";
    case LdapResultCode::kTimeLimitExceeded:
      return "timeLimitExceeded";
    case LdapResultCode::kCompareFalse:
      return "compareFalse";
    case LdapResultCode::kCompareTrue:
      return "compareTrue";
    case LdapResultCode::kNoSuchObject:
      return "noSuchObject";
    case LdapResultCode::kBusy:
      return "busy";
    case LdapResultCode::kUnavailable:
      return "unavailable";
    case LdapResultCode::kUnwillingToPerform:
      return "unwillingToPerform";
    case LdapResultCode::kEntryAlreadyExists:
      return "entryAlreadyExists";
    case LdapResultCode::kOther:
      return "other";
  }
  return "?";
}

LdapBatchResult LdapBackend::ProcessBatch(
    const std::vector<LdapRequest>& requests, uint32_t client_site) {
  LdapBatchResult out;
  out.results.reserve(requests.size());
  for (const LdapRequest& req : requests) {
    LdapResult r = Process(req, client_site);
    out.latency += r.latency;
    out.results.push_back(std::move(r));
  }
  return out;
}

uint64_t LdapBackend::EnqueueBatch(std::vector<LdapRequest> requests,
                                   uint32_t client_site) {
  const uint64_t handle = NextEnqueueHandle();
  enqueued_results_.emplace(handle, ProcessBatch(requests, client_site));
  return handle;
}

std::optional<LdapBatchResult> LdapBackend::TakeBatchResult(uint64_t handle) {
  auto it = enqueued_results_.find(handle);
  if (it == enqueued_results_.end()) return std::nullopt;
  LdapBatchResult out = std::move(it->second);
  enqueued_results_.erase(it);
  return out;
}

LdapResultCode StatusToLdapCode(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
      return LdapResultCode::kSuccess;
    case StatusCode::kNotFound:
      return LdapResultCode::kNoSuchObject;
    case StatusCode::kAlreadyExists:
      return LdapResultCode::kEntryAlreadyExists;
    case StatusCode::kInvalidArgument:
      return LdapResultCode::kProtocolError;
    case StatusCode::kUnavailable:
      return LdapResultCode::kUnavailable;
    case StatusCode::kAborted:
      return LdapResultCode::kBusy;
    case StatusCode::kDeadlineExceeded:
      return LdapResultCode::kTimeLimitExceeded;
    case StatusCode::kFailedPrecondition:
      return LdapResultCode::kUnwillingToPerform;
    case StatusCode::kResourceExhausted:
      return LdapResultCode::kUnwillingToPerform;
    default:
      return LdapResultCode::kOther;
  }
}

}  // namespace udr::ldap
