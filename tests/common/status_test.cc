#include "common/status.h"

#include <gtest/gtest.h>

namespace teleport {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoryHelpersSetCodeAndMessage) {
  EXPECT_EQ(Status::InvalidArgument("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::OutOfMemory("x").code(), StatusCode::kOutOfMemory);
  EXPECT_EQ(Status::TimedOut("x").code(), StatusCode::kTimedOut);
  EXPECT_EQ(Status::Cancelled("x").code(), StatusCode::kCancelled);
  EXPECT_EQ(Status::Unavailable("x").code(), StatusCode::kUnavailable);
  EXPECT_EQ(Status::Fault("x").code(), StatusCode::kFault);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::Fenced("x").code(), StatusCode::kFenced);
  EXPECT_EQ(Status::Internal("boom").message(), "boom");
}

TEST(StatusTest, PredicatesMatchCodes) {
  EXPECT_TRUE(Status::TimedOut("t").IsTimedOut());
  EXPECT_TRUE(Status::Cancelled("c").IsCancelled());
  EXPECT_TRUE(Status::Unavailable("u").IsUnavailable());
  EXPECT_TRUE(Status::Fault("f").IsFault());
  EXPECT_TRUE(Status::Fenced("e").IsFenced());
  EXPECT_FALSE(Status::OK().IsTimedOut());
  EXPECT_FALSE(Status::Unavailable("u").IsFenced());
}

TEST(StatusTest, ToStringIncludesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("missing page").ToString(),
            "NotFound: missing page");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::Internal("a"));
}

TEST(StatusTest, CodeNamesAreStable) {
  EXPECT_EQ(StatusCodeToString(StatusCode::kOk), "OK");
  EXPECT_EQ(StatusCodeToString(StatusCode::kFault), "Fault");
  EXPECT_EQ(StatusCodeToString(StatusCode::kUnavailable), "Unavailable");
  EXPECT_EQ(StatusCodeToString(StatusCode::kFenced), "Fenced");
}

}  // namespace
}  // namespace teleport
