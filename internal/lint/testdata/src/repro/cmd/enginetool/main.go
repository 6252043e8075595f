// Command enginetool is the ctxfirst negative fixture: main packages
// under cmd/ own the process lifetime, so context.Background is legal
// and goroutine launches need no ctx-first signature. The suite must
// stay silent on this package.
package main

import "context"

func main() {
	ctx := context.Background()
	_ = ctx
	go run()
}

func run() {}
