// Command app uses the fixture packages the surface checker's own test
// loads.
package main

import (
	"fmt"

	"fixture/internal/a"
	"fixture/internal/asm"
	"fixture/internal/b"
	"fixture/internal/iface"
	"fixture/internal/stringer"
	"fixture/internal/tagged"
)

func main() {
	c := a.Dial()
	h := b.Handle{Close: func() {}}
	h.Close() // a field of the same name as Conn's dead method
	fmt.Println(c, iface.New().Name(), asm.Sum(), tagged.Hint(), stringer.Label(), stringer.Dead{N: 1})
}
