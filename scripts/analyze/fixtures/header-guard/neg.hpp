// Negative fixture: the pragma, and an #ifndef that is a feature test,
// not a guard.
// ANALYZE-EXPECT: header-guard 0
#pragma once

#ifndef KRONLAB_HAVE_FEATURE
#define KRONLAB_HAVE_FEATURE 0
#endif

inline int fixture3_value() { return KRONLAB_HAVE_FEATURE; }
