// Package engine is the ctxfirst fixture: a library package, so both
// the context.Background ban and the ctx-first rule for exported
// goroutine-launching functions apply. It is neither a deterministic,
// boundary nor hot-path package, so the scoped analyzers stay silent.
package engine

import (
	"context"
	"sync"
)

// Detached builds its own root context instead of threading the
// caller's.
func Detached() context.Context {
	return context.Background() // want `context.Background\(\) in library code`
}

// Launch starts workers without giving the caller a way to stop them.
func Launch(n int) { // want `exported Launch launches goroutines but does not take a context.Context first argument`
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go wg.Done()
	}
	wg.Wait()
}

// Hidden launches inside a closure it defines; that is still work this
// function wires up.
func Hidden(n int) { // want `exported Hidden launches goroutines but does not take a context.Context first argument`
	spawn := func() {
		go func() {}()
	}
	for i := 0; i < n; i++ {
		spawn()
	}
}

// LaunchCtx is the compliant shape: ctx first, so the caller can bound
// the concurrent work.
func LaunchCtx(ctx context.Context, n int) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() { defer wg.Done() }()
	}
	wg.Wait()
}

// launch is unexported: internal helpers may assume their exported
// caller already threads a context.
func launch() {
	go func() {}()
}
