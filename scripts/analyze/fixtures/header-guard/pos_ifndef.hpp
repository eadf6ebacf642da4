// Positive fixture: kronlab headers use the one-line pragma; a classic
// #ifndef guard is flagged (stale guard names silently shadow).
// ANALYZE-EXPECT: header-guard 1

#ifndef KRONLAB_FIXTURE_HPP_
#define KRONLAB_FIXTURE_HPP_

#pragma once

inline int fixture_value() { return 42; }

#endif // KRONLAB_FIXTURE_HPP_
