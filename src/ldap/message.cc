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
