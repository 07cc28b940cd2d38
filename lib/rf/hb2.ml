open Rfkit_la
open Rfkit_circuit
open Rfkit_solve

exception No_convergence = Error.No_convergence

type options = {
  n1 : int;
  n2 : int;
  max_newton : int;
  tol : float;
  gmres_tol : float;
}

let default_options =
  { n1 = 8; n2 = 16; max_newton = 60; tol = 1e-9; gmres_tol = 1e-12 }

type result = {
  circuit : Mna.t;
  f1 : float;
  f2 : float;
  options : options;
  grid : Vec.t;
  newton_iters : int;
  residual : float;
  gmres_iters_total : int;
}

let solve_outcome ?budget ?(options = default_options) c ~f1 ~f2 =
  let { n1; n2; max_newton; tol; gmres_tol } = options in
  let grid = { Hbn.dims = [| n1; n2 |]; max_newton; tol; gmres_tol } in
  Hbn.run ?budget ~engine:"hb2" ~ladder:Hbn.ladder
    ~plan:(fun _ -> (grid, None))
    c ~tones:[| f1; f2 |]
  |> Supervisor.map (fun (r : Hbn.result) ->
         {
           circuit = c;
           f1;
           f2;
           options;
           grid = r.Hbn.grid;
           newton_iters = r.Hbn.newton_iters;
           residual = r.Hbn.residual;
           gmres_iters_total = r.Hbn.gmres_iters_total;
         })

let node_grid res name =
  Mpde.node_grid res.circuit ~n1:res.options.n1 ~n2:res.options.n2 res.grid name

let coefficients res name =
  Hbn.mix_coefficients res.circuit ~dims:[| res.options.n1; res.options.n2 |] res.grid name

let mix_amplitude res name ~k1 ~k2 =
  Hbn.line_amplitude ~dims:[| res.options.n1; res.options.n2 |] (coefficients res name)
    [| k1; k2 |]

type spur = { k1 : int; k2 : int; freq : float; amplitude : float }

let spectrum res name =
  let { n1; n2; _ } = res.options in
  let signed k n = if k <= n / 2 then k else k - n in
  let out = ref [] in
  Array.iteri
    (fun bin c ->
      let k1 = signed (bin / n2) n1 and k2 = signed (bin mod n2) n2 in
      let freq = (float_of_int k1 *. res.f1) +. (float_of_int k2 *. res.f2) in
      if freq >= 0.0 then begin
        let amplitude = if k1 = 0 && k2 = 0 then Cx.abs c else 2.0 *. Cx.abs c in
        if amplitude > 1e-16 then out := { k1; k2; freq; amplitude } :: !out
      end)
    (coefficients res name);
  List.sort (fun a b -> compare a.freq b.freq) !out
