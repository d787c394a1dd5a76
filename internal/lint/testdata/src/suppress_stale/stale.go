// Package suppress holds reasoned directives, only one of which still
// excuses a finding. The expectations for this fixture live in
// lint_test.go (a // want comment cannot share the directive's line —
// the directive grammar would read it as the reason).
package suppress

// memo is written below, so its directive is live.
//
//lint:ignore mira/noglobals append-only memo, growth serialized by callers
var memo []string

// limit is read-only: noglobals has nothing to say, so the directive
// above it is stale.
//
//lint:ignore mira/noglobals tuning knob
var limit = 8

// The directive below names an analyzer the test does not run, so it
// is not judged.
//
//lint:ignore mira/detorder output is sorted by the caller
var order = []string{"a"}

func push(s string) {
	if len(memo) < limit && len(order) > 0 {
		memo = append(memo, s)
	}
}
