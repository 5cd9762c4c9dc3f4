// Command app is the shipped code of the unreached fixture module.
package main

import (
	"fmt"

	"unreached/internal/lib"
)

func main() {
	shapes := []lib.Shape{lib.Square{Side: 2}, lib.Circle{R: 1}}
	fmt.Println(lib.Total(shapes), lib.Clamp(9), shapes[0])
	fmt.Println(lib.Map([]int{1, 2}, func(i int) string { return fmt.Sprint(i) }))
	fmt.Println(lib.Run(lib.Chain{First: lib.Double{}, Second: lib.Double{}}, 1), lib.Wrap{Inner: lib.Plain{}}.Label())
}
