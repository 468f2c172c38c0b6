//===- jvm/exec_profile.cpp - Unified execution-profile knobs -------------==//

#include "jvm/exec_profile.h"

#include <cstdlib>
#include <vector>

using namespace doppio;
using namespace doppio::jvm;

ExecProfile ExecProfile::baseline() {
  ExecProfile P;
  P.Name = "baseline";
  P.TrustVerifier = false;
  P.SuspendChecks = SuspendCheckMode::CallBoundary;
  P.Quicken = false;
  P.InlineCaches = false;
  return P;
}

ExecProfile ExecProfile::verified() {
  ExecProfile P;
  P.Name = "verified";
  P.TrustVerifier = true;
  P.SuspendChecks = SuspendCheckMode::CallBoundary;
  P.Quicken = false;
  P.InlineCaches = false;
  return P;
}

ExecProfile ExecProfile::placed() {
  ExecProfile P = verified();
  P.Name = "placed";
  P.SuspendChecks = SuspendCheckMode::Placed;
  return P;
}

ExecProfile ExecProfile::quick() {
  ExecProfile P = verified();
  P.Name = "quick";
  P.Quicken = true;
  P.InlineCaches = true;
  return P;
}

namespace {

bool parseBool(const std::string &V, bool &Out) {
  if (V == "0" || V == "false") {
    Out = false;
    return true;
  }
  if (V == "1" || V == "true") {
    Out = true;
    return true;
  }
  return false;
}

bool parseSuspend(const std::string &V, SuspendCheckMode &Out) {
  if (V == "call")
    Out = SuspendCheckMode::CallBoundary;
  else if (V == "everywhere")
    Out = SuspendCheckMode::Everywhere;
  else if (V == "placed")
    Out = SuspendCheckMode::Placed;
  else
    return false;
  return true;
}

bool applyPreset(const std::string &Name, ExecProfile &Out) {
  if (Name == "baseline")
    Out = ExecProfile::baseline();
  else if (Name == "verified")
    Out = ExecProfile::verified();
  else if (Name == "placed")
    Out = ExecProfile::placed();
  else if (Name == "quick")
    Out = ExecProfile::quick();
  else
    return false;
  return true;
}

bool fail(std::string *Err, const std::string &Msg) {
  if (Err)
    *Err = Msg;
  return false;
}

} // namespace

bool ExecProfile::parse(const std::string &Spec, ExecProfile &Out,
                        std::string *Err) {
  ExecProfile P = Out;
  std::vector<std::string> Toks;
  for (size_t At = 0; At <= Spec.size();) {
    size_t Comma = Spec.find(',', At);
    if (Comma == std::string::npos) {
      Toks.push_back(Spec.substr(At));
      break;
    }
    Toks.push_back(Spec.substr(At, Comma - At));
    At = Comma + 1;
  }
  bool First = true;
  for (const std::string &Tok : Toks) {
    if (Tok.empty())
      continue;
    size_t Eq = Tok.find('=');
    if (Eq == std::string::npos) {
      // A bare token must be a preset, and only in leading position so
      // later key=value overrides always win.
      if (!First)
        return fail(Err, "preset '" + Tok + "' must come first");
      if (!applyPreset(Tok, P))
        return fail(Err, "unknown execution profile '" + Tok + "'");
    } else {
      std::string Key = Tok.substr(0, Eq), V = Tok.substr(Eq + 1);
      bool Ok = true;
      if (Key == "trust")
        Ok = parseBool(V, P.TrustVerifier);
      else if (Key == "suspend")
        Ok = parseSuspend(V, P.SuspendChecks);
      else if (Key == "quicken")
        Ok = parseBool(V, P.Quicken);
      else if (Key == "ic")
        Ok = parseBool(V, P.InlineCaches);
      else
        return fail(Err, "unknown profile key '" + Key + "'");
      if (!Ok)
        return fail(Err, "bad value '" + V + "' for profile key '" + Key +
                             "'");
      P.Name = "custom";
    }
    First = false;
  }
  Out = std::move(P);
  return true;
}

void ExecProfile::applyEnv() {
  if (const char *Spec = std::getenv("DOPPIO_JVM_PROFILE"))
    parse(Spec, *this); // Unknown specs are ignored, not fatal.
}

std::string ExecProfile::describe() const {
  const char *Suspend = SuspendChecks == SuspendCheckMode::CallBoundary
                            ? "call"
                            : SuspendChecks == SuspendCheckMode::Everywhere
                                  ? "everywhere"
                                  : "placed";
  return Name + "(trust=" + (TrustVerifier ? "1" : "0") + ", suspend=" +
         Suspend + ", quicken=" + (Quicken ? "1" : "0") + ", ic=" +
         (InlineCaches ? "1" : "0") + ")";
}
