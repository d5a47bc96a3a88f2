// Package analyze implements the project's static analyzers — the
// checks behind cmd/ogdplint. They mechanize the two contracts the
// study code must keep for the paper's measurements to be
// reproducible: determinism (byte-identical output for a given
// corpus and seed, regardless of worker count — detrand, orderedemit,
// floatcmp) and concurrency hygiene for the code that fans out to get
// there (gorolife, lockpath, atomicpub, ctxfirst, ctxloop, wraperr).
// Rules the type system can carry are left to the compiler instead: a
// table's raw cell store is unexported, so no check is needed to keep
// analyses on its accessors and dictionary encodings.
//
// The determinism checks exist because the paper's numbers are
// claims about datasets, not about a particular run: a map-order
// leak or a wall-clock read inside a study package would make the
// §3–§6 measurements unrepeatable. Checks operate on type-checked
// ASTs loaded by Loader; findings can be suppressed one at a time
// with //lint:allow comments, and RunDetailed keeps the suppressed
// findings with the position of the absorbing comment so the CI
// ledger can diff suppressions across PRs.
package analyze
