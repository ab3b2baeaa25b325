module polysynth_fsmd (
  input  wire clk,
  input  wire rst,
  input  signed [15:0] x,
  input  signed [15:0] y,
  output signed [15:0] P1,
  output signed [15:0] P2,
  output wire done_o
);
  reg [3:0] state;
  reg signed [15:0] regs [0:3];
  assign done_o = (state == 4'd12);
  always @(posedge clk) begin
    if (rst) state <= 0;
    else if (!done_o) begin
      case (state)
        4'd0: begin
          regs[0] <= x + y; // add unit 0
        end
        4'd1: begin
          regs[0] <= 16'd2 * y; // add unit 0
          regs[1] <= regs[0] * regs[0]; // mult unit 0
        end
        4'd2: begin
          regs[2] <= x - y; // add unit 0
        end
        4'd3: begin
          regs[0] <= x + regs[0]; // add unit 0
        end
        4'd4: begin
          regs[0] <= 16'd5 * regs[0]; // add unit 0
        end
        4'd5: begin
          regs[3] <= 16'd4 * regs[1]; // add unit 0
        end
        4'd6: begin
          regs[2] <= 16'd7 * regs[2]; // add unit 0
        end
        4'd7: begin
          regs[1] <= 16'd6 * regs[1]; // add unit 0
        end
        4'd8: begin
          regs[0] <= regs[0] + regs[3]; // add unit 0
        end
        4'd9: begin
          regs[1] <= regs[2] + regs[1]; // add unit 0
        end
        4'd10: begin
          regs[0] <= 16'd3 + regs[0]; // add unit 0
        end
        4'd11: begin
          regs[1] <= 16'd2 + regs[1]; // add unit 0
        end
        default: ;
      endcase
      state <= state + 1;
    end
  end
  assign P1 = regs[0];
  assign P2 = regs[1];
endmodule
