type cell = Inv | And2 | Or2 | Xor2 | Mux2 | Dff

let all = [ Inv; And2; Or2; Xor2; Mux2; Dff ]

let name = function
  | Inv -> "INV"
  | And2 -> "AND2"
  | Or2 -> "OR2"
  | Xor2 -> "XOR2"
  | Mux2 -> "MUX2"
  | Dff -> "DFF"

let area = function
  | Inv -> 0.5
  | And2 -> 1.25
  | Or2 -> 1.25
  | Xor2 -> 2.5
  | Mux2 -> 2.5
  | Dff -> 6.0

let delay = function
  | Inv -> 30.0
  | And2 -> 60.0
  | Or2 -> 60.0
  | Xor2 -> 90.0
  | Mux2 -> 200.0
  | Dff -> 150.0

let clock_period_ps ~frequency_mhz = 1.0e6 /. frequency_mhz
