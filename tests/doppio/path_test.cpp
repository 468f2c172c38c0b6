//===- tests/doppio/path_test.cpp -----------------------------------------==//

#include "doppio/path.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <random>

using namespace doppio;
using namespace doppio::rt;

namespace {

TEST(Path, Normalize) {
  EXPECT_EQ(path::normalize("/a/b/c"), "/a/b/c");
  EXPECT_EQ(path::normalize("/a//b///c"), "/a/b/c");
  EXPECT_EQ(path::normalize("/a/./b"), "/a/b");
  EXPECT_EQ(path::normalize("/a/b/.."), "/a");
  EXPECT_EQ(path::normalize("/a/b/../../c"), "/c");
  EXPECT_EQ(path::normalize("/.."), "/");
  EXPECT_EQ(path::normalize("/../../x"), "/x");
  EXPECT_EQ(path::normalize(""), ".");
  EXPECT_EQ(path::normalize("."), ".");
  EXPECT_EQ(path::normalize("a/b/"), "a/b");
  EXPECT_EQ(path::normalize("../a"), "../a");
  EXPECT_EQ(path::normalize("a/../.."), "..");
  EXPECT_EQ(path::normalize("/"), "/");
}

TEST(Path, IsAbsolute) {
  EXPECT_TRUE(path::isAbsolute("/a"));
  EXPECT_TRUE(path::isAbsolute("/"));
  EXPECT_FALSE(path::isAbsolute("a/b"));
  EXPECT_FALSE(path::isAbsolute(""));
}

TEST(Path, Join) {
  EXPECT_EQ(path::join({"/a", "b", "c"}), "/a/b/c");
  EXPECT_EQ(path::join({"/a/", "/b/"}), "/a/b");
  EXPECT_EQ(path::join({"a", "..", "b"}), "b");
  EXPECT_EQ(path::join2("/root", "sub/file.txt"), "/root/sub/file.txt");
  EXPECT_EQ(path::join({"", ""}), ".");
}

TEST(Path, Resolve) {
  EXPECT_EQ(path::resolve("/home/user", "file.txt"), "/home/user/file.txt");
  EXPECT_EQ(path::resolve("/home/user", "/etc/passwd"), "/etc/passwd");
  EXPECT_EQ(path::resolve("/home/user", "../other"), "/home/other");
  EXPECT_EQ(path::resolve("/", "."), "/");
}

TEST(Path, DirnameBasenameExtname) {
  EXPECT_EQ(path::dirname("/a/b/c.txt"), "/a/b");
  EXPECT_EQ(path::dirname("/a"), "/");
  EXPECT_EQ(path::dirname("/"), "/");
  EXPECT_EQ(path::dirname("name"), ".");
  EXPECT_EQ(path::basename("/a/b/c.txt"), "c.txt");
  EXPECT_EQ(path::basename("/a/b/"), "b");
  EXPECT_EQ(path::basename("plain"), "plain");
  EXPECT_EQ(path::extname("/a/b/c.txt"), ".txt");
  EXPECT_EQ(path::extname("archive.tar.gz"), ".gz");
  EXPECT_EQ(path::extname("noext"), "");
  EXPECT_EQ(path::extname(".hidden"), "");
}

TEST(Path, Split) {
  EXPECT_EQ(path::split("/a/b/c"),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(path::split("/"), std::vector<std::string>());
}

/// normalize's segment-vector algorithm, applied to every input: the
/// reference that the fast path for normal absolute paths must match.
std::string referenceNormalize(std::string_view P) {
  bool Absolute = !P.empty() && P.front() == '/';
  std::vector<std::string> Out;
  size_t Start = 0;
  while (Start <= P.size()) {
    size_t Slash = std::min(P.find('/', Start), P.size());
    std::string Segment(P.substr(Start, Slash - Start));
    Start = Slash + 1;
    if (Segment.empty() || Segment == ".")
      continue;
    if (Segment == "..") {
      if (!Out.empty() && Out.back() != "..")
        Out.pop_back();
      else if (!Absolute)
        Out.push_back("..");
      continue;
    }
    Out.push_back(std::move(Segment));
  }
  std::string Result = Absolute ? "/" : "";
  for (size_t I = 0; I != Out.size(); ++I)
    Result += (I ? "/" : "") + Out[I];
  return Result.empty() ? "." : Result;
}

std::string referenceDirname(std::string_view P) {
  std::string N = referenceNormalize(P);
  size_t Slash = N.rfind('/');
  if (Slash == std::string::npos)
    return ".";
  return Slash == 0 ? "/" : N.substr(0, Slash);
}

std::string referenceBasename(std::string_view P) {
  std::string N = referenceNormalize(P);
  size_t Slash = N.rfind('/');
  return Slash == std::string::npos ? N : N.substr(Slash + 1);
}

// Property: on random paths over a, b, ".", "..", "/" and "//", normalize,
// dirname and basename agree with the slow reference, and the fast path
// is taken exactly for absolute paths that are already normal.
TEST(Path, FastPathMatchesSlowReference) {
  const char *Pieces[] = {"a", "b", ".", "..", "/", "//"};
  std::mt19937 Rng(2014);
  size_t FastTaken = 0;
  for (int Case = 0; Case != 200000; ++Case) {
    std::string P;
    for (size_t N = Rng() % 9; N != 0; --N)
      P += Pieces[Rng() % 6];
    SCOPED_TRACE("'" + P + "'");
    std::string Normal = referenceNormalize(P);
    bool Fast = path::isNormalAbsolute(P);
    FastTaken += Fast;
    ASSERT_EQ(Fast, path::isAbsolute(P) && Normal == P);
    ASSERT_EQ(path::normalize(P), Normal);
    ASSERT_EQ(path::dirname(P), referenceDirname(P));
    ASSERT_EQ(path::basename(P), referenceBasename(P));
    ASSERT_EQ(path::parentOf(Normal), referenceDirname(P));
  }
  // Both paths were exercised.
  EXPECT_GT(FastTaken, 1000u);
  EXPECT_LT(FastTaken, 100000u);
}

// Property: normalize is idempotent.
class PathNormalizeProperty : public ::testing::TestWithParam<const char *> {
};

TEST_P(PathNormalizeProperty, Idempotent) {
  std::string Once = path::normalize(GetParam());
  EXPECT_EQ(path::normalize(Once), Once);
}

INSTANTIATE_TEST_SUITE_P(Corpus, PathNormalizeProperty,
                         ::testing::Values("/a/b/../c", "a//b/./..", "/../..",
                                           "x/../../y/z/", "////",
                                           "/a/./././b", "..", ".",
                                           "/very/deep/../../../up"));

} // namespace
