// Package a declares a method that nothing calls.
package a

// Conn is a connection.
type Conn struct{ id int }

// Dial returns a connection.
func Dial() *Conn { return &Conn{id: 1} }

// Close is dead: only a field of another package shares its name.
func (c *Conn) Close() { c.id = 0 }
