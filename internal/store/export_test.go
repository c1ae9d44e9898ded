package store

// FlagLabels01 is for the external tests of package store_test. They
// import core, which imports store, so they cannot be in package store;
// the alias exists only in test builds.
const FlagLabels01 = flagLabels01
