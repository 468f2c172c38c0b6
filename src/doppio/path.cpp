//===- doppio/path.cpp ----------------------------------------------------==//

#include "doppio/path.h"

using namespace doppio;
using namespace doppio::rt;

bool path::isAbsolute(std::string_view P) {
  return !P.empty() && P.front() == '/';
}

/// Splits on '/' keeping no empty segments.
static std::vector<std::string> rawSegments(std::string_view P) {
  std::vector<std::string> Segments;
  size_t Start = 0;
  while (Start <= P.size()) {
    size_t Slash = P.find('/', Start);
    if (Slash == std::string_view::npos)
      Slash = P.size();
    if (Slash > Start)
      Segments.emplace_back(P.substr(Start, Slash - Start));
    Start = Slash + 1;
  }
  return Segments;
}

bool path::isNormalAbsolute(std::string_view P) {
  if (!isAbsolute(P))
    return false;
  if (P.size() == 1)
    return true;
  size_t Start = 1;
  for (size_t I = 1; I <= P.size(); ++I) {
    if (I != P.size() && P[I] != '/')
      continue;
    std::string_view Segment = P.substr(Start, I - Start);
    if (Segment.empty() || Segment == "." || Segment == "..")
      return false;
    Start = I + 1;
  }
  return true;
}

std::string path::normalize(std::string_view P) {
  if (isNormalAbsolute(P))
    return std::string(P);
  bool Absolute = isAbsolute(P);
  std::vector<std::string> Out;
  for (std::string &Segment : rawSegments(P)) {
    if (Segment == ".")
      continue;
    if (Segment == "..") {
      if (!Out.empty() && Out.back() != "..") {
        Out.pop_back();
        continue;
      }
      if (Absolute)
        continue; // ".." above the root stays at the root.
      Out.push_back("..");
      continue;
    }
    Out.push_back(std::move(Segment));
  }
  std::string Result = Absolute ? "/" : "";
  for (size_t I = 0; I != Out.size(); ++I) {
    if (I != 0)
      Result += '/';
    Result += Out[I];
  }
  if (Result.empty())
    return Absolute ? "/" : ".";
  return Result;
}

std::string path::join(std::initializer_list<std::string_view> Parts) {
  std::string Glued;
  for (std::string_view Part : Parts) {
    if (Part.empty())
      continue;
    if (!Glued.empty())
      Glued += '/';
    Glued.append(Part);
  }
  return normalize(Glued);
}

std::string path::join2(std::string_view A, std::string_view B) {
  return join({A, B});
}

std::string path::resolve(std::string_view Cwd, std::string_view P) {
  if (isAbsolute(P))
    return normalize(P);
  return join({Cwd, P});
}

std::string_view path::parentOf(std::string_view Normal) {
  size_t Slash = Normal.rfind('/');
  if (Slash == std::string_view::npos)
    return ".";
  return Normal.substr(0, Slash == 0 ? 1 : Slash);
}

std::string path::dirname(std::string_view P) {
  return std::string(parentOf(normalize(P)));
}

std::string path::basename(std::string_view P) {
  std::string N = normalize(P);
  return N.substr(N.rfind('/') + 1);
}

std::string path::extname(std::string_view P) {
  std::string Base = basename(P);
  size_t Dot = Base.rfind('.');
  if (Dot == std::string::npos || Dot == 0)
    return "";
  return Base.substr(Dot);
}

std::vector<std::string> path::split(std::string_view P) {
  return rawSegments(normalize(P));
}
